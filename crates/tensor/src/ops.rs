//! Reference (loop-nest) implementations of the network operators.
//!
//! These are deliberately the simplest possible implementations: they are
//! the functional ground truth that the GEMM fast path ([`crate::gemm`])
//! and the workspace's loop-nest schedule walks must match bit-for-bit.

use std::error::Error;
use std::fmt;

use codesign_dnn::{ConvSpec, Shape};

use crate::tensor::{Filters, Tensor};

/// Error returned when operator arguments are dimensionally inconsistent.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ShapeMismatchError {
    op: &'static str,
    detail: String,
}

impl ShapeMismatchError {
    /// Creates an error for operator `op`.
    pub(crate) fn new(op: &'static str, detail: impl Into<String>) -> Self {
        Self { op, detail: detail.into() }
    }
}

impl fmt::Display for ShapeMismatchError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}: {}", self.op, self.detail)
    }
}

impl Error for ShapeMismatchError {}

/// Validates the shared convolution argument contract (group counts,
/// filter-bank dimensions, spec-fits-input) and returns the inferred
/// output shape. Every convolution implementation — the reference loop
/// nest here, the im2col cross-check and the GEMM fast path — enforces
/// exactly this contract.
///
/// # Errors
///
/// Returns [`ShapeMismatchError`] (attributed to operator `op`) when the
/// filter bank does not match the spec/input or the spec does not fit.
pub(crate) fn check_conv_args(
    input: &Tensor,
    filters: &Filters,
    spec: &ConvSpec,
    op: &'static str,
) -> Result<Shape, ShapeMismatchError> {
    let in_shape = input.shape();
    if spec.groups == 0
        || !in_shape.channels.is_multiple_of(spec.groups)
        || !spec.out_channels.is_multiple_of(spec.groups)
    {
        return Err(ShapeMismatchError::new(op, "invalid group count"));
    }
    if filters.in_channels() != in_shape.channels / spec.groups
        || filters.out_channels() != spec.out_channels
        || filters.kernel_height() != spec.kernel.height
        || filters.kernel_width() != spec.kernel.width
    {
        return Err(ShapeMismatchError::new(op, "filter bank does not match spec"));
    }
    codesign_dnn::layer::infer_output(&codesign_dnn::LayerOp::Conv(*spec), in_shape)
        .ok_or_else(|| ShapeMismatchError::new(op, "spec does not fit input"))
}

/// Computes a grouped 2-D convolution with zero padding.
///
/// `filters.in_channels()` must equal `input channels / groups` and
/// `filters.out_channels()` must equal `spec.out_channels`.
///
/// # Errors
///
/// Returns [`ShapeMismatchError`] when the filter bank does not match the
/// spec/input, or the spec does not fit the input.
pub fn conv2d(
    input: &Tensor,
    filters: &Filters,
    spec: &ConvSpec,
) -> Result<Tensor, ShapeMismatchError> {
    let out_shape = check_conv_args(input, filters, spec, "conv2d")?;
    let in_shape = input.shape();
    let cg = in_shape.channels / spec.groups; // input channels per group
    let kg = spec.out_channels / spec.groups; // filters per group

    let mut out = Tensor::zeros(out_shape);
    for k in 0..spec.out_channels {
        let group = k / kg;
        for oy in 0..out_shape.height {
            for ox in 0..out_shape.width {
                let mut acc: i64 = 0;
                for c in 0..cg {
                    let ic = group * cg + c;
                    for dy in 0..spec.kernel.height {
                        for dx in 0..spec.kernel.width {
                            let iy = (oy * spec.stride + dy) as isize - spec.pad_h as isize;
                            let ix = (ox * spec.stride + dx) as isize - spec.pad_w as isize;
                            let v = input.at_padded(ic, iy, ix) as i64;
                            let w = filters.tap(k, c, dy, dx) as i64;
                            acc += v * w;
                        }
                    }
                }
                *out.at_mut(k, oy, ox) = clamp_acc(acc);
            }
        }
    }
    Ok(out)
}

/// Computes a fully-connected layer: `weights` is a [`Filters`] bank with
/// `kh = kw = 1` and `in_channels` equal to the flattened input length.
///
/// # Errors
///
/// Returns [`ShapeMismatchError`] when the weight matrix does not match
/// the flattened input length.
pub fn fully_connected(input: &Tensor, weights: &Filters) -> Result<Tensor, ShapeMismatchError> {
    let n = input.shape().elements();
    if weights.in_channels() != n || weights.kernel_height() != 1 || weights.kernel_width() != 1 {
        return Err(ShapeMismatchError::new("fully_connected", "weight matrix mismatch"));
    }
    let flat = input.as_slice();
    let mut out = Tensor::zeros(Shape::vector(weights.out_channels()));
    for k in 0..weights.out_channels() {
        let mut acc: i64 = 0;
        for (c, &v) in flat.iter().enumerate() {
            acc += v as i64 * weights.tap(k, c, 0, 0) as i64;
        }
        *out.at_mut(k, 0, 0) = clamp_acc(acc);
    }
    Ok(out)
}

/// Max pooling with Caffe ceil-mode output rounding.
///
/// Row by row: a running column max over the window's input rows, then
/// one window max per output over that row of column maxima. Ceil-mode
/// windows that run past the bottom or right edge are clipped; one that
/// starts past it (a stride above the kernel) is empty and yields
/// `i32::MIN`.
///
/// # Errors
///
/// Returns [`ShapeMismatchError`] when the window does not fit.
pub fn max_pool(
    input: &Tensor,
    kernel: usize,
    stride: usize,
) -> Result<Tensor, ShapeMismatchError> {
    let s = input.shape();
    let oh = codesign_dnn::shape::pool_out_dim_ceil(s.height, kernel, stride, 0)
        .ok_or_else(|| ShapeMismatchError::new("max_pool", "window does not fit"))?;
    let ow = codesign_dnn::shape::pool_out_dim_ceil(s.width, kernel, stride, 0)
        .ok_or_else(|| ShapeMismatchError::new("max_pool", "window does not fit"))?;
    let clip =
        |o: usize, extent: usize| (o * stride).min(extent)..(o * stride + kernel).min(extent);
    let mut data = Vec::with_capacity(s.channels * oh * ow);
    let mut colmax = vec![i32::MIN; s.width];
    for c in 0..s.channels {
        let plane = input.channel_plane(c);
        for oy in 0..oh {
            let ys = clip(oy, s.height);
            colmax.fill(i32::MIN);
            for row in plane[ys.start * s.width..ys.end * s.width].chunks_exact(s.width) {
                for (m, &v) in colmax.iter_mut().zip(row) {
                    *m = (*m).max(v);
                }
            }
            data.extend(
                (0..ow).map(|ox| colmax[clip(ox, s.width)].iter().fold(i32::MIN, |a, &v| a.max(v))),
            );
        }
    }
    Ok(Tensor::from_vec(Shape::new(s.channels, oh, ow), data))
}

/// Average pooling (floor-mode rounding, truncating integer division).
///
/// # Errors
///
/// Returns [`ShapeMismatchError`] when the window does not fit.
pub fn avg_pool(
    input: &Tensor,
    kernel: usize,
    stride: usize,
) -> Result<Tensor, ShapeMismatchError> {
    let s = input.shape();
    let oh = codesign_dnn::shape::conv_out_dim(s.height, kernel, stride, 0)
        .ok_or_else(|| ShapeMismatchError::new("avg_pool", "window does not fit"))?;
    let ow = codesign_dnn::shape::conv_out_dim(s.width, kernel, stride, 0)
        .ok_or_else(|| ShapeMismatchError::new("avg_pool", "window does not fit"))?;
    let mut out = Tensor::zeros(Shape::new(s.channels, oh, ow));
    let denom = (kernel * kernel) as i64;
    for c in 0..s.channels {
        for oy in 0..oh {
            for ox in 0..ow {
                let mut acc: i64 = 0;
                for dy in 0..kernel {
                    for dx in 0..kernel {
                        acc += input.at(c, oy * stride + dy, ox * stride + dx) as i64;
                    }
                }
                *out.at_mut(c, oy, ox) = clamp_acc(acc / denom);
            }
        }
    }
    Ok(out)
}

/// Global average pooling down to `c × 1 × 1`.
pub fn global_avg_pool(input: &Tensor) -> Tensor {
    let s = input.shape();
    let mut out = Tensor::zeros(Shape::vector(s.channels));
    let denom = s.plane() as i64;
    for c in 0..s.channels {
        let mut acc: i64 = 0;
        for y in 0..s.height {
            for x in 0..s.width {
                acc += input.at(c, y, x) as i64;
            }
        }
        *out.at_mut(c, 0, 0) = clamp_acc(acc / denom.max(1));
    }
    out
}

/// Element-wise saturating addition of two equally shaped tensors.
///
/// # Errors
///
/// Returns [`ShapeMismatchError`] when shapes differ.
pub fn eltwise_add(a: &Tensor, b: &Tensor) -> Result<Tensor, ShapeMismatchError> {
    if a.shape() != b.shape() {
        return Err(ShapeMismatchError::new("eltwise_add", "shapes differ"));
    }
    let data = a
        .as_slice()
        .iter()
        .zip(b.as_slice())
        .map(|(&x, &y)| clamp_acc(x as i64 + y as i64))
        .collect();
    Ok(Tensor::from_vec(a.shape(), data))
}

/// Saturates a wide accumulator to the `i32` activation range.
///
/// This single clamp, applied exactly once per output element after the
/// full exact `i64` accumulation, is what makes every execution order —
/// naive loop nest, im2col, blocked GEMM, WS/OS schedules — bit-identical:
/// integer addition commutes, so only the final saturation point matters.
#[inline]
pub fn clamp_acc(acc: i64) -> i32 {
    acc.clamp(i32::MIN as i64, i32::MAX as i64) as i32
}

#[cfg(test)]
mod tests {
    use super::*;
    use codesign_dnn::Kernel;
    use proptest::prelude::*;

    /// The naive window loop [`max_pool`] replaced: every output scans
    /// its whole window, clipped at the input's edges.
    fn max_pool_naive(input: &Tensor, kernel: usize, stride: usize) -> Tensor {
        let s = input.shape();
        let oh = codesign_dnn::shape::pool_out_dim_ceil(s.height, kernel, stride, 0).unwrap();
        let ow = codesign_dnn::shape::pool_out_dim_ceil(s.width, kernel, stride, 0).unwrap();
        let mut out = Tensor::zeros(Shape::new(s.channels, oh, ow));
        for c in 0..s.channels {
            for oy in 0..oh {
                for ox in 0..ow {
                    let mut best = i32::MIN;
                    for dy in 0..kernel {
                        for dx in 0..kernel {
                            let iy = oy * stride + dy;
                            let ix = ox * stride + dx;
                            if iy < s.height && ix < s.width {
                                best = best.max(input.at(c, iy, ix));
                            }
                        }
                    }
                    *out.at_mut(c, oy, ox) = best;
                }
            }
        }
        out
    }

    fn spec(out: usize, k: usize, s: usize, p: usize, groups: usize) -> ConvSpec {
        ConvSpec {
            out_channels: out,
            kernel: Kernel::square(k),
            stride: s,
            pad_h: p,
            pad_w: p,
            groups,
        }
    }

    #[test]
    fn identity_kernel_is_identity() {
        let input = Tensor::from_fn(Shape::new(1, 4, 4), |_, y, x| (y * 4 + x) as i32);
        // 3x3 kernel with centre 1, same padding.
        let f = Filters::from_fn(1, 1, 3, 3, |_, _, dy, dx| i32::from(dy == 1 && dx == 1));
        let out = conv2d(&input, &f, &spec(1, 3, 1, 1, 1)).unwrap();
        assert_eq!(out, input);
    }

    #[test]
    fn pointwise_conv_is_channel_mix() {
        let input = Tensor::from_fn(Shape::new(2, 2, 2), |c, _, _| if c == 0 { 1 } else { 10 });
        let f = Filters::from_fn(1, 2, 1, 1, |_, c, _, _| if c == 0 { 3 } else { 5 });
        let out = conv2d(&input, &f, &spec(1, 1, 1, 0, 1)).unwrap();
        assert!(out.as_slice().iter().all(|&v| v == 3 + 50));
    }

    #[test]
    fn stride_and_pad_shape() {
        let input = Tensor::zeros(Shape::new(3, 227, 227));
        let f = Filters::zeros(96, 3, 11, 11);
        let out = conv2d(&input, &f, &spec(96, 11, 4, 0, 1)).unwrap();
        assert_eq!(out.shape(), Shape::new(96, 55, 55));
    }

    #[test]
    fn depthwise_keeps_channels_independent() {
        let input = Tensor::from_fn(Shape::new(2, 3, 3), |c, _, _| if c == 0 { 1 } else { 100 });
        // Each channel's filter sums its own 3x3 neighbourhood (weight 1).
        let f = Filters::from_fn(2, 1, 3, 3, |_, _, _, _| 1);
        let s = ConvSpec {
            out_channels: 2,
            kernel: Kernel::square(3),
            stride: 1,
            pad_h: 1,
            pad_w: 1,
            groups: 2,
        };
        let out = conv2d(&input, &f, &s).unwrap();
        // Centre pixel sees all 9 neighbours.
        assert_eq!(out.at(0, 1, 1), 9);
        assert_eq!(out.at(1, 1, 1), 900);
        // Corner sees 4.
        assert_eq!(out.at(0, 0, 0), 4);
    }

    #[test]
    fn grouped_conv_blocks_cross_talk() {
        // 2 groups, input channel 0 -> group 0, channel 1 -> group 1.
        let input = Tensor::from_fn(Shape::new(2, 1, 1), |c, _, _| if c == 0 { 1 } else { 1000 });
        let f = Filters::from_fn(2, 1, 1, 1, |_, _, _, _| 1);
        let s = spec(2, 1, 1, 0, 2);
        let out = conv2d(&input, &f, &s).unwrap();
        assert_eq!(out.at(0, 0, 0), 1);
        assert_eq!(out.at(1, 0, 0), 1000);
    }

    #[test]
    fn conv_rejects_mismatched_filters() {
        let input = Tensor::zeros(Shape::new(3, 8, 8));
        let f = Filters::zeros(8, 4, 3, 3);
        assert!(conv2d(&input, &f, &spec(8, 3, 1, 1, 1)).is_err());
    }

    #[test]
    fn fc_is_matrix_vector() {
        let input = Tensor::from_vec(Shape::new(2, 1, 2), vec![1, 2, 3, 4]);
        let w = Filters::from_fn(2, 4, 1, 1, |k, c, _, _| if k == 0 { 1 } else { c as i32 });
        let out = fully_connected(&input, &w).unwrap();
        assert_eq!(out.as_slice(), &[10, 2 + 6 + 12]);
    }

    #[test]
    fn fc_rejects_bad_width() {
        let input = Tensor::zeros(Shape::new(2, 2, 2));
        let w = Filters::zeros(10, 7, 1, 1);
        assert!(fully_connected(&input, &w).is_err());
    }

    #[test]
    fn max_pool_ceil_covers_edges() {
        // 5x5 input, 2x2 stride 2 ceil -> 3x3; edge windows are partial.
        let input = Tensor::from_fn(Shape::new(1, 5, 5), |_, y, x| (y * 5 + x) as i32);
        let out = max_pool(&input, 2, 2).unwrap();
        assert_eq!(out.shape(), Shape::new(1, 3, 3));
        assert_eq!(out.at(0, 0, 0), 6);
        assert_eq!(out.at(0, 2, 2), 24);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// The row-wise max pool against the naive window loop: kernels
        /// 1-4, strides 1-3 (above the kernel too, which leaves empty
        /// ceil-mode windows) and planes of 1-20 with partial edge windows.
        #[test]
        fn max_pool_matches_the_window_loop(
            kernel in 1usize..=4,
            stride in 1usize..=3,
            (channels, h, w) in (1usize..=3, 1usize..=20, 1usize..=20),
            seed in any::<u64>(),
        ) {
            use rand::{rngs::StdRng, SeedableRng};
            let shape = Shape::new(channels, h.max(kernel), w.max(kernel));
            let input = Tensor::random(shape, 1 << 20, &mut StdRng::seed_from_u64(seed));
            let want = max_pool_naive(&input, kernel, stride);
            prop_assert_eq!(max_pool(&input, kernel, stride).unwrap(), want);
        }
    }

    #[test]
    fn avg_pool_truncates() {
        let input = Tensor::from_vec(Shape::new(1, 2, 2), vec![1, 2, 3, 5]);
        let out = avg_pool(&input, 2, 2).unwrap();
        assert_eq!(out.as_slice(), &[2]); // 11/4 = 2
    }

    #[test]
    fn global_avg_pool_averages_planes() {
        let input = Tensor::from_fn(Shape::new(2, 2, 2), |c, _, _| (c as i32 + 1) * 4);
        let out = global_avg_pool(&input);
        assert_eq!(out.as_slice(), &[4, 8]);
    }

    #[test]
    fn eltwise_add_saturates() {
        let a = Tensor::from_vec(Shape::new(1, 1, 1), vec![i32::MAX]);
        let b = Tensor::from_vec(Shape::new(1, 1, 1), vec![1]);
        assert_eq!(eltwise_add(&a, &b).unwrap().as_slice(), &[i32::MAX]);
        let c = Tensor::zeros(Shape::new(1, 2, 1));
        assert!(eltwise_add(&a, &c).is_err());
    }

    #[test]
    fn clamp_acc_saturates_exactly_at_i32_bounds() {
        // The boundary values themselves pass through unclamped...
        assert_eq!(clamp_acc(i32::MAX as i64), i32::MAX);
        assert_eq!(clamp_acc(i32::MIN as i64), i32::MIN);
        assert_eq!(clamp_acc(0), 0);
        // ...one past saturates...
        assert_eq!(clamp_acc(i32::MAX as i64 + 1), i32::MAX);
        assert_eq!(clamp_acc(i32::MIN as i64 - 1), i32::MIN);
        // ...and so does the far end of the i64 range.
        assert_eq!(clamp_acc(i64::MAX), i32::MAX);
        assert_eq!(clamp_acc(i64::MIN), i32::MIN);
    }

    #[test]
    fn conv_saturates_wide_accumulators() {
        // A single 1x1 product of i32::MAX * ±2 overflows i32 in both
        // directions; the i64 accumulator must carry it and the output
        // must saturate rather than wrap.
        let spec = ConvSpec {
            out_channels: 2,
            kernel: Kernel::square(1),
            stride: 1,
            pad_h: 0,
            pad_w: 0,
            groups: 1,
        };
        let input = Tensor::from_vec(Shape::new(1, 1, 1), vec![i32::MAX]);
        let f = Filters::from_fn(2, 1, 1, 1, |k, _, _, _| if k == 0 { 2 } else { -2 });
        let out = conv2d(&input, &f, &spec).unwrap();
        assert_eq!(out.as_slice(), &[i32::MAX, i32::MIN]);

        // i32::MIN * 1 is exactly representable: no spurious clamping.
        let input = Tensor::from_vec(Shape::new(1, 1, 1), vec![i32::MIN]);
        let eye = Filters::from_fn(2, 1, 1, 1, |k, _, _, _| i32::from(k == 0));
        let out = conv2d(&input, &eye, &spec).unwrap();
        assert_eq!(out.as_slice(), &[i32::MIN, 0]);
    }

    #[test]
    fn fc_saturates_wide_accumulators() {
        let input = Tensor::from_vec(Shape::new(2, 1, 1), vec![i32::MAX, i32::MAX]);
        let w = Filters::from_fn(2, 2, 1, 1, |k, _, _, _| if k == 0 { 1 } else { -1 });
        let out = fully_connected(&input, &w).unwrap();
        // Sum of two i32::MAX overflows i32 by almost 2x either way.
        assert_eq!(out.as_slice(), &[i32::MAX, i32::MIN]);
    }
}
