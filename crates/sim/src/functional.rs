//! Functional dataflow executors: run the WS and OS schedules over real
//! tensor data.
//!
//! The executors take their tiling from the run-length schedules
//! ([`crate::cycle`] traces the same ones): [`conv2d_ws`] partitions the
//! filters into the WS weight-column tiles and computes each tile's
//! contribution with the packed, register-blocked GEMM micro-kernel from
//! `codesign_tensor::gemm`; [`conv2d_os`] walks the OS output tiles and
//! register-file-bounded filter passes with row-span broadcasts that skip
//! zero weights; [`fc_ws`] runs fully-connected layers as degenerate WS.
//! All parallelise over the worker pool.
//!
//! Every output element is an exact `i64` sum saturated once at the end,
//! so reordering the additions cannot change a single bit: the executors
//! and the reference convolution in `codesign-tensor` are
//! **bit-identical**, and the tests (plus the zoo-wide CI suite in
//! `tests/functional_equality.rs`) assert it. The workspace's test-only
//! loop-nest spec walks the same schedules scalar step by scalar step
//! and must match the reference too.

use codesign_arch::AcceleratorConfig;
use codesign_dnn::ConvSpec;
use codesign_tensor::gemm::{gemm_accumulate, is_depthwise, pack_patches, valid_range};
use codesign_tensor::ops::check_conv_args;
use codesign_tensor::{Filters, ShapeMismatchError, Tensor};

use crate::steps::{os_pass, OutputTile, Tiles};

/// Layers below this many multiply-accumulates run serially — worker-pool
/// latency would dominate the work (same threshold as the GEMM path).
const MIN_PAR_MACS: u64 = 1 << 22;

fn effective_jobs(jobs: usize, macs: u64) -> usize {
    if macs < MIN_PAR_MACS {
        1
    } else {
        jobs
    }
}

/// Executes a convolution with the weight-stationary schedule, bit-identical
/// to the reference convolution. [`conv2d_ws_jobs`] with one worker.
///
/// # Errors
///
/// Returns [`ShapeMismatchError`] under the same conditions as
/// [`codesign_tensor::ops::conv2d`].
pub fn conv2d_ws(
    input: &Tensor,
    filters: &Filters,
    spec: &ConvSpec,
    cfg: &AcceleratorConfig,
) -> Result<Tensor, ShapeMismatchError> {
    conv2d_ws_jobs(input, filters, spec, cfg, 1)
}

/// Weight-stationary executor: the filter dimension is partitioned into
/// the same N-wide weight-column tiles the array loads, and each tile's
/// entire `(row-tile, dy, dx)` reduction is collapsed into packed dots by
/// the GEMM micro-kernel (exact `i64` sums, so the reordering is
/// invisible). Tiles are distributed over `jobs` workers (`0` = one per
/// core); results are byte-identical for every `jobs` value.
///
/// Depthwise convolutions delegate to the dedicated direct path in
/// `codesign_tensor::gemm` — under WS their weight tiles are 1×1 and the
/// im2col form would only duplicate pixels.
///
/// # Errors
///
/// Returns [`ShapeMismatchError`] under the same conditions as
/// [`codesign_tensor::ops::conv2d`].
pub fn conv2d_ws_jobs(
    input: &Tensor,
    filters: &Filters,
    spec: &ConvSpec,
    cfg: &AcceleratorConfig,
    jobs: usize,
) -> Result<Tensor, ShapeMismatchError> {
    let out_shape = check_conv_args(input, filters, spec, "conv2d_ws")?;
    if is_depthwise(spec, input.shape()) {
        return codesign_tensor::gemm::conv2d_gemm_jobs(input, filters, spec, jobs);
    }
    let cg = input.shape().channels / spec.groups;
    let kg = spec.out_channels / spec.groups;
    let rows = cg * spec.kernel.height * spec.kernel.width;
    let cols = out_shape.plane();
    let jobs = effective_jobs(jobs, (spec.out_channels * rows * cols) as u64);
    let tiles: Vec<(usize, usize)> = Tiles::new(kg, cfg.array_size()).bounds().collect();

    let mut data = Vec::with_capacity(out_shape.elements());
    for group in 0..spec.groups {
        let patches = pack_patches(input, spec, group, out_shape);
        let blocks = codesign_parallel::par_map(jobs, &tiles, |_, &(k0, ct)| {
            let wrows: Vec<&[i32]> =
                (k0..k0 + ct).map(|kk| filters.filter_taps(group * kg + kk)).collect();
            let mut acc = vec![0i64; ct * cols];
            gemm_accumulate(&wrows, &patches, rows, cols, &mut acc);
            acc.into_iter().map(saturate).collect::<Vec<i32>>()
        });
        for b in &blocks {
            data.extend_from_slice(b);
        }
    }
    Ok(Tensor::from_vec(out_shape, data))
}

/// Executes a convolution with the output-stationary schedule,
/// bit-identical to the reference convolution. [`conv2d_os_jobs`] with
/// one worker.
///
/// # Errors
///
/// Returns [`ShapeMismatchError`] under the same conditions as
/// [`codesign_tensor::ops::conv2d`].
pub fn conv2d_os(
    input: &Tensor,
    filters: &Filters,
    spec: &ConvSpec,
    cfg: &AcceleratorConfig,
) -> Result<Tensor, ShapeMismatchError> {
    conv2d_os_jobs(input, filters, spec, cfg, 1)
}

/// Output-stationary executor: N×N spatial output tiles, register-file-
/// bounded filter passes with per-tile channel packing, zero-weight
/// skipping (a zero tap contributes an exact `0`, so skipping it never
/// changes the sums), each weight broadcast computed as row-sliced
/// multiply-accumulate spans. Spatial tiles are distributed over `jobs`
/// workers (`0` = one per core); results are byte-identical for every
/// `jobs` value.
///
/// # Errors
///
/// Returns [`ShapeMismatchError`] under the same conditions as
/// [`codesign_tensor::ops::conv2d`].
pub fn conv2d_os_jobs(
    input: &Tensor,
    filters: &Filters,
    spec: &ConvSpec,
    cfg: &AcceleratorConfig,
    jobs: usize,
) -> Result<Tensor, ShapeMismatchError> {
    let out_shape = check_conv_args(input, filters, spec, "conv2d_os")?;
    let s = input.shape();
    let cg = s.channels / spec.groups;
    let kg_total = spec.out_channels / spec.groups;
    let depthwise = is_depthwise(spec, s);
    let dense_macs = spec.out_channels * cg * spec.kernel.height * spec.kernel.width;
    let jobs = effective_jobs(jobs, (dense_macs * out_shape.plane()) as u64);
    let tiles: Vec<OutputTile> =
        OutputTile::grid(out_shape.height, out_shape.width, cfg.array_size()).collect();

    // Each spatial tile is an independent (all-channels × tile-region)
    // block; workers never share an output region.
    let blocks = codesign_parallel::par_map(jobs, &tiles, |_, tile| {
        let px = tile.th * tile.tw;
        let mut block = vec![0i32; spec.out_channels * px];
        if depthwise {
            for c in 0..s.channels {
                let mut rf = vec![0i64; px];
                let src = input.channel_plane(c);
                for dy in 0..spec.kernel.height {
                    for dx in 0..spec.kernel.width {
                        let w = filters.tap(c, 0, dy, dx) as i64;
                        if w == 0 {
                            continue; // zero-weight broadcast skipped
                        }
                        accumulate_tile_rows(&mut rf, src, s, spec, tile, (dy, dx), w);
                    }
                }
                for (dst, &acc) in block[c * px..(c + 1) * px].iter_mut().zip(&rf) {
                    *dst = saturate(acc);
                }
            }
            return block;
        }
        let resident = os_pass(cfg, tile.th, tile.tw, kg_total, true);
        for group in 0..spec.groups {
            for (k0, pass) in Tiles::new(kg_total, resident).bounds() {
                let mut rf = vec![0i64; px * pass];
                for c in 0..cg {
                    let src = input.channel_plane(group * cg + c);
                    for f in 0..pass {
                        let kabs = group * kg_total + k0 + f;
                        for dy in 0..spec.kernel.height {
                            for dx in 0..spec.kernel.width {
                                let w = filters.tap(kabs, c, dy, dx) as i64;
                                if w == 0 {
                                    continue; // zero-weight skip
                                }
                                let rf_f = &mut rf[f * px..(f + 1) * px];
                                accumulate_tile_rows(rf_f, src, s, spec, tile, (dy, dx), w);
                            }
                        }
                    }
                }
                for f in 0..pass {
                    let kabs = group * kg_total + k0 + f;
                    let rf_f = &rf[f * px..(f + 1) * px];
                    for (dst, &acc) in block[kabs * px..(kabs + 1) * px].iter_mut().zip(rf_f) {
                        *dst = saturate(acc);
                    }
                }
            }
        }
        block
    });

    // Scatter the finished tile blocks into the CHW output.
    let mut out = Tensor::zeros(out_shape);
    let (ow, plane) = (out_shape.width, out_shape.plane());
    let data = out.as_mut_slice();
    for (block, t) in blocks.iter().zip(&tiles) {
        for k in 0..spec.out_channels {
            for ty in 0..t.th {
                let dst = k * plane + (t.y0 + ty) * ow + t.x0;
                data[dst..dst + t.tw].copy_from_slice(&block[(k * t.th + ty) * t.tw..][..t.tw]);
            }
        }
    }
    Ok(out)
}

/// One weight broadcast `w` at filter tap `(dy, dx)`: every PE of the
/// output tile multiplies its (shifted) input pixel by `w` and
/// accumulates. The valid output span is computed once per row
/// ([`valid_range`]) so the inner loop indexes the input plane directly
/// with no padding branches; pixels outside the span read zero padding
/// and contribute nothing.
fn accumulate_tile_rows(
    rf: &mut [i64],
    src_plane: &[i32],
    in_shape: codesign_dnn::Shape,
    spec: &ConvSpec,
    tile: &OutputTile,
    (dy, dx): (usize, usize),
    w: i64,
) {
    let OutputTile { y0, x0, th, tw } = *tile;
    let (tylo, tyhi) = valid_range(th, y0, spec.stride, dy, spec.pad_h, in_shape.height);
    let (txlo, txhi) = valid_range(tw, x0, spec.stride, dx, spec.pad_w, in_shape.width);
    for ty in tylo..tyhi {
        let iy = (y0 + ty) * spec.stride + dy - spec.pad_h;
        let row = &src_plane[iy * in_shape.width..(iy + 1) * in_shape.width];
        let dst = &mut rf[ty * tw..(ty + 1) * tw];
        let mut ix = (x0 + txlo) * spec.stride + dx - spec.pad_w;
        for d in dst.iter_mut().take(txhi).skip(txlo) {
            *d += w * row[ix] as i64;
            ix += spec.stride;
        }
    }
}

#[inline]
fn saturate(acc: i64) -> i32 {
    codesign_tensor::ops::clamp_acc(acc)
}

/// Executes a fully-connected layer with the weight-stationary schedule
/// — the degenerate one-pixel case of [`conv2d_ws`], which is how the
/// array §4.1.2 describes runs "the FC layer operations". [`fc_ws_jobs`]
/// with one worker.
///
/// # Errors
///
/// Returns [`ShapeMismatchError`] when the weight matrix does not match
/// the flattened input length.
pub fn fc_ws(
    input: &Tensor,
    weights: &Filters,
    cfg: &AcceleratorConfig,
) -> Result<Tensor, ShapeMismatchError> {
    fc_ws_jobs(input, weights, cfg, 1)
}

/// FC executor: the WS tiling only changes the order of the exact
/// `i64` additions, so the blocked matrix-vector product from
/// `codesign_tensor::gemm` produces the identical bits. The accelerator
/// config is validated against but does not affect the result.
///
/// # Errors
///
/// Returns [`ShapeMismatchError`] when the weight matrix does not match
/// the flattened input length.
pub fn fc_ws_jobs(
    input: &Tensor,
    weights: &Filters,
    cfg: &AcceleratorConfig,
    jobs: usize,
) -> Result<Tensor, ShapeMismatchError> {
    let _ = cfg; // tiling granularity does not change the exact sums
    if weights.in_channels() != input.as_slice().len()
        || weights.kernel_height() != 1
        || weights.kernel_width() != 1
    {
        return Err(ShapeMismatchError::new("fc_ws", "weight matrix mismatch"));
    }
    codesign_tensor::gemm::fully_connected_gemm_jobs(input, weights, jobs)
}

/// Executes a whole network functionally — [`run_network_on_accelerator_jobs`]
/// with a single worker.
///
/// # Errors
///
/// Returns [`codesign_tensor::RunNetworkError`] under the same conditions
/// as the reference executor.
pub fn run_network_on_accelerator(
    network: &codesign_dnn::Network,
    image: &Tensor,
    weights: &codesign_tensor::WeightStore,
    cfg: &AcceleratorConfig,
    policy: codesign_arch::DataflowPolicy,
    opts: crate::engine::SimOptions,
) -> Result<codesign_tensor::NetworkActivations, codesign_tensor::RunNetworkError> {
    run_network_on_accelerator_jobs(network, image, weights, cfg, policy, opts, 1)
}

/// Executes a whole network functionally, running every convolution with
/// the dataflow the given policy selects (WS/OS executors,
/// parallelised with `jobs` workers) and every FC layer with the
/// degenerate-WS schedule ([`fc_ws_jobs`]); non-compute layers use the
/// reference operators. Activations are resolved by reference through
/// [`codesign_tensor::ActivationBuilder`] — nothing is cloned between
/// layers. The result must be bit-identical to
/// [`codesign_tensor::run_network`] for every `jobs` value; the
/// integration tests and the zoo-wide CI suite assert it.
///
/// # Errors
///
/// Returns [`codesign_tensor::RunNetworkError`] under the same conditions
/// as the reference executor.
pub fn run_network_on_accelerator_jobs(
    network: &codesign_dnn::Network,
    image: &Tensor,
    weights: &codesign_tensor::WeightStore,
    cfg: &AcceleratorConfig,
    policy: codesign_arch::DataflowPolicy,
    opts: crate::engine::SimOptions,
    jobs: usize,
) -> Result<codesign_tensor::NetworkActivations, codesign_tensor::RunNetworkError> {
    use codesign_arch::{Dataflow, DataflowPolicy};
    use codesign_dnn::LayerOp;
    use codesign_tensor::RunNetworkError;

    let mut acts = codesign_tensor::ActivationBuilder::with_capacity(network.layers().len());
    for layer in network.layers() {
        let input = acts.primary_input(layer, image)?;
        let out = match &layer.op {
            LayerOp::Conv(spec) => {
                let filters = weights
                    .get(&layer.name)
                    .ok_or_else(|| RunNetworkError::MissingWeights(layer.name.clone()))?;
                let dataflow = match policy {
                    DataflowPolicy::Fixed(d) => d,
                    DataflowPolicy::PerLayer => {
                        crate::engine::compare_dataflows(layer, cfg, opts).2
                    }
                };
                match dataflow {
                    Dataflow::WeightStationary => conv2d_ws_jobs(input, filters, spec, cfg, jobs)?,
                    Dataflow::OutputStationary => conv2d_os_jobs(input, filters, spec, cfg, jobs)?,
                }
            }
            LayerOp::FullyConnected { .. } => {
                let filters = weights
                    .get(&layer.name)
                    .ok_or_else(|| RunNetworkError::MissingWeights(layer.name.clone()))?;
                fc_ws_jobs(input, filters, cfg, jobs)?
            }
            _ => {
                let merge = acts.merge_operand(layer, image)?;
                codesign_tensor::run_layer(layer, input, merge, weights)?
            }
        };
        acts.push(layer.name.clone(), out);
    }
    Ok(acts.finish())
}

#[cfg(test)]
mod tests {
    use super::*;
    use codesign_dnn::{Kernel, Shape};
    use codesign_tensor::ops::conv2d;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn small_cfg() -> AcceleratorConfig {
        AcceleratorConfig::builder()
            .array_size(4)
            .rf_depth(3)
            .global_buffer_bytes(4096)
            .build()
            .unwrap()
    }

    fn random_case(rng: &mut StdRng) -> (Tensor, Filters, ConvSpec) {
        let depthwise = rng.gen_bool(0.25);
        let (groups, cg, cout) = if depthwise {
            let c = rng.gen_range(2..=9usize);
            (c, 1, c)
        } else {
            let groups = [1, 1, 1, 2][rng.gen_range(0..4usize)];
            let cg = rng.gen_range(1..=6usize);
            (groups, cg, groups * rng.gen_range(1..=7usize))
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
    fn ws_matches_reference() {
        let mut rng = StdRng::seed_from_u64(7);
        let cfg = small_cfg();
        for i in 0..60 {
            let (input, filters, spec) = random_case(&mut rng);
            let want = conv2d(&input, &filters, &spec).unwrap();
            let got = conv2d_ws(&input, &filters, &spec, &cfg).unwrap();
            assert_eq!(got, want, "case {i}: {spec:?}");
        }
    }

    #[test]
    fn os_matches_reference() {
        let mut rng = StdRng::seed_from_u64(8);
        let cfg = small_cfg();
        for i in 0..60 {
            let (input, filters, spec) = random_case(&mut rng);
            let want = conv2d(&input, &filters, &spec).unwrap();
            let got = conv2d_os(&input, &filters, &spec, &cfg).unwrap();
            assert_eq!(got, want, "case {i}: {spec:?}");
        }
    }

    #[test]
    fn both_schedules_match_on_paper_array_size() {
        let mut rng = StdRng::seed_from_u64(9);
        let cfg = AcceleratorConfig::paper_default();
        for _ in 0..10 {
            let (input, filters, spec) = random_case(&mut rng);
            let want = conv2d(&input, &filters, &spec).unwrap();
            assert_eq!(conv2d_ws(&input, &filters, &spec, &cfg).unwrap(), want);
            assert_eq!(conv2d_os(&input, &filters, &spec, &cfg).unwrap(), want);
        }
    }

    #[test]
    fn fast_executors_are_jobs_invariant() {
        let mut rng = StdRng::seed_from_u64(10);
        let cfg = small_cfg();
        for _ in 0..10 {
            let (input, filters, spec) = random_case(&mut rng);
            let ws1 = conv2d_ws_jobs(&input, &filters, &spec, &cfg, 1).unwrap();
            let os1 = conv2d_os_jobs(&input, &filters, &spec, &cfg, 1).unwrap();
            for jobs in [2, 5] {
                assert_eq!(conv2d_ws_jobs(&input, &filters, &spec, &cfg, jobs).unwrap(), ws1);
                assert_eq!(conv2d_os_jobs(&input, &filters, &spec, &cfg, jobs).unwrap(), os1);
            }
        }
    }

    #[test]
    fn fc_schedule_matches_reference() {
        let mut rng = StdRng::seed_from_u64(11);
        let cfg = small_cfg();
        for _ in 0..20 {
            let n = rng.gen_range(1..40);
            let k = rng.gen_range(1..40);
            let input = Tensor::random(Shape::new(n, 1, 1), 64, &mut rng);
            let w = Filters::random(k, n, 1, 1, 16, 0.4, &mut rng);
            let want = codesign_tensor::ops::fully_connected(&input, &w).unwrap();
            assert_eq!(fc_ws(&input, &w, &cfg).unwrap(), want);
        }
        let bad = Filters::zeros(4, 7, 1, 1);
        let input = Tensor::zeros(Shape::new(3, 1, 1));
        assert!(fc_ws(&input, &bad, &cfg).is_err());
    }

    #[test]
    fn executors_validate_arguments() {
        let cfg = small_cfg();
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
        assert!(conv2d_ws(&input, &bad, &spec, &cfg).is_err());
        assert!(conv2d_os(&input, &bad, &spec, &cfg).is_err());
    }
}
