//! Dense integer tensors in channel-height-width layout.

use std::fmt;

use codesign_dnn::Shape;
use rand::distributions::{Distribution, Uniform};
use rand::Rng;

/// A dense `channels × height × width` tensor of `i32` activations.
///
/// The Squeezelerator datapath is a 16-bit integer multiplier with a wider
/// accumulator; activations here are kept within `i16` range by
/// construction (see [`Tensor::random`]) while the storage type is `i32`
/// so intermediate sums never overflow in the functional model.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Tensor {
    shape: Shape,
    data: Vec<i32>,
}

impl Tensor {
    /// Creates a zero-filled tensor.
    pub fn zeros(shape: Shape) -> Self {
        Self { shape, data: vec![0; shape.elements()] }
    }

    /// Creates a tensor from a generating function `(c, y, x) -> value`.
    pub fn from_fn(shape: Shape, mut f: impl FnMut(usize, usize, usize) -> i32) -> Self {
        let mut data = Vec::with_capacity(shape.elements());
        for c in 0..shape.channels {
            for y in 0..shape.height {
                for x in 0..shape.width {
                    data.push(f(c, y, x));
                }
            }
        }
        Self { shape, data }
    }

    /// Creates a tensor with elements drawn uniformly from
    /// `-range..=range` (clamped to `i16` range).
    pub fn random(shape: Shape, range: i32, rng: &mut impl Rng) -> Self {
        let range = range.clamp(0, i16::MAX as i32);
        let dist = Uniform::new_inclusive(-range, range);
        let data = (0..shape.elements()).map(|_| dist.sample(rng)).collect();
        Self { shape, data }
    }

    /// Wraps an existing buffer.
    ///
    /// # Panics
    ///
    /// Panics if `data.len() != shape.elements()`.
    pub fn from_vec(shape: Shape, data: Vec<i32>) -> Self {
        assert_eq!(
            data.len(),
            shape.elements(),
            "buffer length {} does not match shape {shape}",
            data.len()
        );
        Self { shape, data }
    }

    /// The tensor's shape.
    pub fn shape(&self) -> Shape {
        self.shape
    }

    /// Element at `(c, y, x)`.
    ///
    /// # Panics
    ///
    /// Panics if the index is out of bounds.
    #[inline]
    pub fn at(&self, c: usize, y: usize, x: usize) -> i32 {
        debug_assert!(c < self.shape.channels && y < self.shape.height && x < self.shape.width);
        self.data[(c * self.shape.height + y) * self.shape.width + x]
    }

    /// Element at `(c, y, x)` where `y`/`x` may fall outside the feature
    /// map (returns the zero-padding value `0`).
    #[inline]
    pub fn at_padded(&self, c: usize, y: isize, x: isize) -> i32 {
        if y < 0 || x < 0 || y as usize >= self.shape.height || x as usize >= self.shape.width {
            0
        } else {
            self.at(c, y as usize, x as usize)
        }
    }

    /// Mutable element at `(c, y, x)`.
    ///
    /// # Panics
    ///
    /// Panics if the index is out of bounds.
    #[inline]
    pub fn at_mut(&mut self, c: usize, y: usize, x: usize) -> &mut i32 {
        debug_assert!(c < self.shape.channels && y < self.shape.height && x < self.shape.width);
        &mut self.data[(c * self.shape.height + y) * self.shape.width + x]
    }

    /// The flat backing slice (CHW order).
    pub fn as_slice(&self) -> &[i32] {
        &self.data
    }

    /// The contiguous `height × width` plane of channel `c` (row-major).
    ///
    /// # Panics
    ///
    /// Panics if `c` is out of bounds.
    #[inline]
    pub fn channel_plane(&self, c: usize) -> &[i32] {
        let plane = self.shape.plane();
        &self.data[c * plane..(c + 1) * plane]
    }

    /// Concatenates tensors along the channel axis.
    ///
    /// # Panics
    ///
    /// Panics if spatial dimensions disagree or `parts` is empty.
    pub fn concat_channels(parts: &[&Tensor]) -> Tensor {
        assert!(!parts.is_empty(), "concat of at least one tensor");
        let first = &parts[0];
        let (h, w) = (first.shape.height, first.shape.width);
        let mut data = Vec::new();
        let mut channels = 0;
        for p in parts {
            assert_eq!(
                (p.shape.height, p.shape.width),
                (h, w),
                "concat requires equal spatial dims"
            );
            channels += p.shape.channels;
            data.extend_from_slice(&p.data);
        }
        Tensor { shape: Shape::new(channels, h, w), data }
    }
}

impl fmt::Display for Tensor {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Tensor({})", self.shape)
    }
}

/// A bank of convolution filters: `out_channels` filters of
/// `in_channels_per_group × kh × kw` taps each.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Filters {
    out_channels: usize,
    in_channels: usize,
    kh: usize,
    kw: usize,
    data: Vec<i32>,
}

impl Filters {
    /// Creates a zero-filled filter bank. `in_channels` is the per-group
    /// input channel count (i.e. already divided by `groups`).
    pub fn zeros(out_channels: usize, in_channels: usize, kh: usize, kw: usize) -> Self {
        Self {
            out_channels,
            in_channels,
            kh,
            kw,
            data: vec![0; out_channels * in_channels * kh * kw],
        }
    }

    /// Creates filters with taps drawn uniformly from `-range..=range`,
    /// then forces approximately `sparsity` (0..=1) of the taps to zero —
    /// matching the paper's "conservatively model the sparsity ... at
    /// 40 %".
    ///
    /// # Panics
    ///
    /// Panics if `sparsity` is not within `0.0..=1.0`.
    pub fn random(
        out_channels: usize,
        in_channels: usize,
        kh: usize,
        kw: usize,
        range: i32,
        sparsity: f64,
        rng: &mut impl Rng,
    ) -> Self {
        assert!((0.0..=1.0).contains(&sparsity), "sparsity must be in 0..=1");
        let dist = Uniform::new_inclusive(-range.max(1), range.max(1));
        let data = (0..out_channels * in_channels * kh * kw)
            .map(|_| if rng.gen::<f64>() < sparsity { 0 } else { dist.sample(rng) })
            .collect();
        Self { out_channels, in_channels, kh, kw, data }
    }

    /// From a generating function `(k, c, dy, dx) -> tap`.
    pub fn from_fn(
        out_channels: usize,
        in_channels: usize,
        kh: usize,
        kw: usize,
        mut f: impl FnMut(usize, usize, usize, usize) -> i32,
    ) -> Self {
        let mut data = Vec::with_capacity(out_channels * in_channels * kh * kw);
        for k in 0..out_channels {
            for c in 0..in_channels {
                for dy in 0..kh {
                    for dx in 0..kw {
                        data.push(f(k, c, dy, dx));
                    }
                }
            }
        }
        Self { out_channels, in_channels, kh, kw, data }
    }

    /// Number of filters (output channels).
    pub fn out_channels(&self) -> usize {
        self.out_channels
    }

    /// Per-group input channels each filter spans.
    pub fn in_channels(&self) -> usize {
        self.in_channels
    }

    /// Kernel height.
    pub fn kernel_height(&self) -> usize {
        self.kh
    }

    /// Kernel width.
    pub fn kernel_width(&self) -> usize {
        self.kw
    }

    /// Tap `(k, c, dy, dx)`.
    ///
    /// # Panics
    ///
    /// Panics if the index is out of bounds.
    #[inline]
    pub fn tap(&self, k: usize, c: usize, dy: usize, dx: usize) -> i32 {
        debug_assert!(
            k < self.out_channels && c < self.in_channels && dy < self.kh && dx < self.kw
        );
        self.data[((k * self.in_channels + c) * self.kh + dy) * self.kw + dx]
    }

    /// All taps of filter `k` as one contiguous slice in `(c, dy, dx)`
    /// order — exactly the row order the im2col lowering uses, so the
    /// GEMM path can dot this slice against a packed patch directly.
    ///
    /// # Panics
    ///
    /// Panics if `k` is out of bounds.
    #[inline]
    pub fn filter_taps(&self, k: usize) -> &[i32] {
        let len = self.in_channels * self.kh * self.kw;
        &self.data[k * len..(k + 1) * len]
    }

    /// The flat backing slice (`(k, c, dy, dx)` order).
    pub fn as_slice(&self) -> &[i32] {
        &self.data
    }

    /// Fraction of zero taps (the sparsity the OS dataflow exploits).
    pub fn zero_fraction(&self) -> f64 {
        if self.data.is_empty() {
            return 0.0;
        }
        self.data.iter().filter(|&&t| t == 0).count() as f64 / self.data.len() as f64
    }

    /// Total tap count.
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// Whether the bank holds no taps.
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn indexing_round_trips() {
        let mut t = Tensor::zeros(Shape::new(2, 3, 4));
        *t.at_mut(1, 2, 3) = 42;
        assert_eq!(t.at(1, 2, 3), 42);
        assert_eq!(t.as_slice()[2 * 12 - 1], 42);
    }

    #[test]
    fn from_fn_is_chw_order() {
        let t = Tensor::from_fn(Shape::new(2, 2, 2), |c, y, x| (c * 100 + y * 10 + x) as i32);
        assert_eq!(t.as_slice(), &[0, 1, 10, 11, 100, 101, 110, 111]);
    }

    #[test]
    fn padded_access_returns_zero_outside() {
        let t = Tensor::from_fn(Shape::new(1, 2, 2), |_, _, _| 7);
        assert_eq!(t.at_padded(0, -1, 0), 0);
        assert_eq!(t.at_padded(0, 0, 2), 0);
        assert_eq!(t.at_padded(0, 1, 1), 7);
    }

    #[test]
    fn random_respects_range() {
        let mut rng = StdRng::seed_from_u64(1);
        let t = Tensor::random(Shape::new(4, 8, 8), 100, &mut rng);
        assert!(t.as_slice().iter().all(|&v| (-100..=100).contains(&v)));
    }

    #[test]
    fn concat_stacks_channels() {
        let a = Tensor::from_fn(Shape::new(1, 2, 2), |_, _, _| 1);
        let b = Tensor::from_fn(Shape::new(2, 2, 2), |_, _, _| 2);
        let c = Tensor::concat_channels(&[&a, &b]);
        assert_eq!(c.shape(), Shape::new(3, 2, 2));
        assert_eq!(c.at(0, 0, 0), 1);
        assert_eq!(c.at(1, 1, 1), 2);
        assert_eq!(c.at(2, 1, 1), 2);
    }

    #[test]
    #[should_panic(expected = "equal spatial dims")]
    fn concat_rejects_mismatched_spatial() {
        let a = Tensor::zeros(Shape::new(1, 2, 2));
        let b = Tensor::zeros(Shape::new(1, 3, 2));
        let _ = Tensor::concat_channels(&[&a, &b]);
    }

    #[test]
    fn filters_sparsity_is_controlled() {
        let mut rng = StdRng::seed_from_u64(7);
        let f = Filters::random(64, 64, 3, 3, 100, 0.4, &mut rng);
        let z = f.zero_fraction();
        assert!((z - 0.4).abs() < 0.03, "zero fraction = {z}");
        let dense = Filters::random(16, 16, 3, 3, 100, 0.0, &mut rng);
        // Uniform over -100..=100 hits 0 rarely; allow a small fraction.
        assert!(dense.zero_fraction() < 0.02);
    }

    #[test]
    fn filter_tap_layout() {
        let f =
            Filters::from_fn(2, 2, 2, 2, |k, c, dy, dx| (k * 1000 + c * 100 + dy * 10 + dx) as i32);
        assert_eq!(f.tap(1, 1, 0, 1), 1101);
        assert_eq!(f.len(), 16);
        assert!(!f.is_empty());
    }

    #[test]
    #[should_panic(expected = "does not match shape")]
    fn from_vec_validates_length() {
        let _ = Tensor::from_vec(Shape::new(1, 2, 2), vec![0; 3]);
    }
}
