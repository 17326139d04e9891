//! Feature-map shape algebra.
//!
//! All shapes in this crate describe a single image (batch size 1, the
//! paper's evaluation setting) in channel-height-width order.

use std::fmt;

/// Shape of a feature map: `channels × height × width`.
///
/// # Examples
///
/// ```
/// use codesign_dnn::Shape;
///
/// let s = Shape::new(3, 227, 227);
/// assert_eq!(s.elements(), 3 * 227 * 227);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Shape {
    /// Number of channels.
    pub channels: usize,
    /// Spatial height in pixels.
    pub height: usize,
    /// Spatial width in pixels.
    pub width: usize,
}

impl Shape {
    /// Creates a new shape.
    pub const fn new(channels: usize, height: usize, width: usize) -> Self {
        Self { channels, height, width }
    }

    /// Creates a `channels × 1 × 1` shape, as produced by global pooling or
    /// consumed by fully-connected layers.
    pub const fn vector(channels: usize) -> Self {
        Self::new(channels, 1, 1)
    }

    /// Total number of scalar elements.
    pub const fn elements(&self) -> usize {
        self.channels * self.height * self.width
    }

    /// Number of pixels in one channel plane.
    pub const fn plane(&self) -> usize {
        self.height * self.width
    }

    /// Size in bytes when stored with `bytes_per_element`-byte elements
    /// (the Squeezelerator uses 16-bit integers, i.e. 2 bytes).
    pub const fn bytes(&self, bytes_per_element: usize) -> usize {
        self.elements() * bytes_per_element
    }
}

impl fmt::Display for Shape {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}x{}x{}", self.channels, self.height, self.width)
    }
}

/// Computes one spatial output dimension of a convolution or pooling
/// window: `floor((in + 2*pad - kernel) / stride) + 1`.
///
/// Returns `None` when the window does not fit even once (the layer is
/// malformed), `stride == 0`, or the padded extent overflows `usize`.
///
/// # Examples
///
/// ```
/// use codesign_dnn::shape::conv_out_dim;
///
/// // AlexNet conv1: 227 input, 11x11 kernel, stride 4, no padding -> 55.
/// assert_eq!(conv_out_dim(227, 11, 4, 0), Some(55));
/// ```
pub fn conv_out_dim(input: usize, kernel: usize, stride: usize, pad: usize) -> Option<usize> {
    Some(window_span(input, kernel, stride, pad)? / stride + 1)
}

/// Computes a pooling output dimension with ceil-mode rounding, as used by
/// Caffe-style max pooling (`ceil((in + 2*pad - kernel) / stride) + 1`).
///
/// Returns `None` for malformed parameters, as [`conv_out_dim`] does.
pub fn pool_out_dim_ceil(input: usize, kernel: usize, stride: usize, pad: usize) -> Option<usize> {
    Some(window_span(input, kernel, stride, pad)?.div_ceil(stride) + 1)
}

/// `in + 2*pad - kernel`: how far a window slides over the padded
/// input, or `None` for a zero stride or kernel, a window larger than the
/// padded input, or a padded extent beyond `usize`. The callers' `+ 1`
/// cannot overflow, since `kernel >= 1`.
fn window_span(input: usize, kernel: usize, stride: usize, pad: usize) -> Option<usize> {
    if stride == 0 || kernel == 0 {
        return None;
    }
    pad.checked_mul(2)?.checked_add(input)?.checked_sub(kernel)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_is_c_h_w() {
        assert_eq!(Shape::new(3, 227, 227).to_string(), "3x227x227");
    }

    #[test]
    fn elements_and_bytes() {
        let s = Shape::new(64, 55, 55);
        assert_eq!(s.elements(), 64 * 55 * 55);
        assert_eq!(s.bytes(2), 2 * 64 * 55 * 55);
        assert_eq!(s.plane(), 55 * 55);
    }

    #[test]
    fn vector_shape() {
        let v = Shape::vector(1000);
        assert_eq!(v, Shape::new(1000, 1, 1));
        assert_eq!(v.elements(), 1000);
    }

    #[test]
    fn conv_out_dim_basic() {
        // SqueezeNet conv1: 227, 7x7, stride 2 -> 111.
        assert_eq!(conv_out_dim(227, 7, 2, 0), Some(111));
        // Same-padding 3x3 stride 1.
        assert_eq!(conv_out_dim(13, 3, 1, 1), Some(13));
        // 1x1 stride 1 preserves size.
        assert_eq!(conv_out_dim(55, 1, 1, 0), Some(55));
    }

    #[test]
    fn conv_out_dim_rejects_malformed() {
        assert_eq!(conv_out_dim(5, 7, 1, 0), None);
        assert_eq!(conv_out_dim(5, 3, 0, 0), None);
        assert_eq!(conv_out_dim(5, 0, 1, 0), None);
        // Padding can make a too-small input legal.
        assert_eq!(conv_out_dim(5, 7, 1, 1), Some(1));
        // A padded extent beyond `usize` is malformed, not wrapped.
        assert_eq!(conv_out_dim(1, 1, 1, usize::MAX / 2 + 1), None);
        assert_eq!(conv_out_dim(usize::MAX, 1, 1, 1), None);
        assert_eq!(pool_out_dim_ceil(usize::MAX, 3, 2, 1), None);
        assert_eq!(conv_out_dim(usize::MAX, 1, 1, 0), Some(usize::MAX));
    }

    #[test]
    fn pool_ceil_mode_rounds_up() {
        // SqueezeNet pool1: 111, 3x3, stride 2, ceil -> 55.
        assert_eq!(pool_out_dim_ceil(111, 3, 2, 0), Some(55));
        // 13 -> with 3x3 s2 ceil: (13-3)/2 ceil = 5, +1 = 6.
        assert_eq!(pool_out_dim_ceil(13, 3, 2, 0), Some(6));
        // Floor-mode comparison: conv_out_dim gives 6 for 13? (13-3)/2+1 = 6 too.
        assert_eq!(conv_out_dim(13, 3, 2, 0), Some(6));
        // A case where they differ: input 6, 3x3 s2: floor -> 2, ceil -> 3.
        assert_eq!(conv_out_dim(6, 3, 2, 0), Some(2));
        assert_eq!(pool_out_dim_ceil(6, 3, 2, 0), Some(3));
    }

    #[test]
    fn ordering_and_hash_derives_exist() {
        use std::collections::HashSet;
        let mut set = HashSet::new();
        set.insert(Shape::new(1, 2, 3));
        assert!(set.contains(&Shape::new(1, 2, 3)));
        assert!(Shape::new(1, 2, 3) < Shape::new(2, 0, 0));
    }
}
