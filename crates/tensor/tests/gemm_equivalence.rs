//! The tiled GEMM execution stack against its executable spec: over
//! arbitrary well-formed (input, filters, spec) triples, `conv2d_gemm`
//! must agree **bit-for-bit** with both the naive loop nest
//! (`ops::conv2d`) and the im2col cross-check (`conv2d_im2col`), and the
//! fully-connected GEMM must agree with `ops::fully_connected`. Pinned
//! regressions cover the shapes that route through special paths:
//! depthwise (skips the im2col blowup), grouped, pointwise 1x1,
//! single-pixel outputs, and zero-padding-dominant patches. Fixed cases
//! and a property above the parallel gate hold every path (pixel ranges
//! of packed blocks, depthwise channel ranges, fully-connected feature
//! ranges) to one worker's bits at 0 (one per core), 2, 3 and 8 workers.

use codesign_dnn::{ConvSpec, Kernel, Shape};
use codesign_tensor::gemm::{conv2d_gemm, fully_connected_gemm, NC};
use codesign_tensor::{conv2d_im2col, Filters, Tensor};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// A random well-formed (input, filters, spec) triple, biased toward
/// the special-path shapes: depthwise groups, pointwise kernels, strided
/// and padded windows, and inputs barely larger than the kernel.
fn conv_case() -> impl Strategy<Value = (Tensor, Filters, ConvSpec)> {
    (
        1usize..=4, // groups
        1usize..=3, // channels per group
        1usize..=5, // filters per group
        prop_oneof![Just((1usize, 1usize)), Just((3, 3)), Just((1, 3)), Just((3, 1)), Just((5, 5))],
        1usize..=2,   // stride
        0usize..=2,   // pad
        0usize..=6,   // extra spatial size
        any::<u64>(), // data seed
    )
        .prop_map(|(groups, cg, kg, (kh, kw), stride, pad, extra, seed)| {
            let mut rng = StdRng::seed_from_u64(seed);
            let cin = groups * cg;
            let cout = groups * kg;
            let h = kh.max(kw) + extra;
            let w = kh.max(kw) + extra;
            let input = Tensor::random(Shape::new(cin, h, w), 64, &mut rng);
            let filters = Filters::random(cout, cg, kh, kw, 16, 0.4, &mut rng);
            let spec = ConvSpec {
                out_channels: cout,
                kernel: Kernel::new(kh, kw),
                stride,
                pad_h: pad.min(kh / 2 + 1),
                pad_w: pad.min(kw / 2 + 1),
                groups,
            };
            (input, filters, spec)
        })
}

/// Asserts all three convolution implementations agree bit-for-bit.
fn assert_triple_equal(input: &Tensor, filters: &Filters, spec: &ConvSpec) {
    let naive = codesign_tensor::ops::conv2d(input, filters, spec).unwrap();
    let im2col = conv2d_im2col(input, filters, spec).unwrap();
    let gemm = conv2d_gemm(input, filters, spec, 1).unwrap();
    assert_eq!(naive, im2col, "im2col diverged from the loop nest: {spec:?}");
    assert_eq!(naive, gemm, "GEMM diverged from the loop nest: {spec:?}");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// GEMM == loop nest == im2col over arbitrary conv cases.
    #[test]
    fn gemm_matches_both_references((input, filters, spec) in conv_case()) {
        let naive = codesign_tensor::ops::conv2d(&input, &filters, &spec).unwrap();
        let im2col = conv2d_im2col(&input, &filters, &spec).unwrap();
        let gemm = conv2d_gemm(&input, &filters, &spec, 1).unwrap();
        prop_assert_eq!(&naive, &im2col);
        prop_assert_eq!(&naive, &gemm);
    }

    /// The worker count never changes a single bit of the output.
    #[test]
    fn gemm_is_jobs_invariant((input, filters, spec) in conv_case(), jobs in 2usize..=8) {
        let serial = conv2d_gemm(&input, &filters, &spec, 1).unwrap();
        let parallel = conv2d_gemm(&input, &filters, &spec, jobs).unwrap();
        prop_assert_eq!(serial, parallel);
    }

    /// The fully-connected GEMM agrees with the reference matrix-vector
    /// loop for arbitrary flattened sizes.
    #[test]
    fn fc_gemm_matches_reference(n in 1usize..=96, k in 1usize..=48, seed in any::<u64>()) {
        let mut rng = StdRng::seed_from_u64(seed);
        let input = Tensor::random(Shape::new(n, 1, 1), 64, &mut rng);
        let weights = Filters::random(k, n, 1, 1, 16, 0.4, &mut rng);
        let want = codesign_tensor::ops::fully_connected(&input, &weights).unwrap();
        let got = fully_connected_gemm(&input, &weights, 1).unwrap();
        prop_assert_eq!(want, got);
    }
}

/// Depthwise: groups == channels routes through the dedicated direct
/// path that skips patch packing entirely.
#[test]
fn pinned_depthwise() {
    let mut rng = StdRng::seed_from_u64(101);
    let input = Tensor::random(Shape::new(8, 13, 11), 64, &mut rng);
    let filters = Filters::random(8, 1, 3, 3, 16, 0.4, &mut rng);
    let spec = ConvSpec {
        out_channels: 8,
        kernel: Kernel::square(3),
        stride: 1,
        pad_h: 1,
        pad_w: 1,
        groups: 8,
    };
    assert_triple_equal(&input, &filters, &spec);
    // Strided depthwise reduction, MobileNet-style.
    let spec2 = ConvSpec { stride: 2, ..spec };
    assert_triple_equal(&input, &filters, &spec2);
}

/// Grouped but not depthwise: per-group packing and filter windows.
#[test]
fn pinned_grouped() {
    let mut rng = StdRng::seed_from_u64(102);
    let input = Tensor::random(Shape::new(6, 9, 9), 64, &mut rng);
    let filters = Filters::random(9, 2, 3, 3, 16, 0.4, &mut rng);
    let spec = ConvSpec {
        out_channels: 9,
        kernel: Kernel::square(3),
        stride: 1,
        pad_h: 1,
        pad_w: 1,
        groups: 3,
    };
    assert_triple_equal(&input, &filters, &spec);
}

/// Pointwise 1x1: rows == channels, no padding, patch matrix is the
/// input itself.
#[test]
fn pinned_pointwise() {
    let mut rng = StdRng::seed_from_u64(103);
    let input = Tensor::random(Shape::new(16, 7, 7), 64, &mut rng);
    let filters = Filters::random(24, 16, 1, 1, 16, 0.4, &mut rng);
    let spec = ConvSpec {
        out_channels: 24,
        kernel: Kernel::square(1),
        stride: 1,
        pad_h: 0,
        pad_w: 0,
        groups: 1,
    };
    assert_triple_equal(&input, &filters, &spec);
}

/// Single-pixel output: one column, the interleaved block is almost all
/// zero-padded tail lanes.
#[test]
fn pinned_single_pixel() {
    let mut rng = StdRng::seed_from_u64(104);
    let input = Tensor::random(Shape::new(4, 3, 3), 64, &mut rng);
    let filters = Filters::random(10, 4, 3, 3, 16, 0.4, &mut rng);
    let spec = ConvSpec {
        out_channels: 10,
        kernel: Kernel::square(3),
        stride: 1,
        pad_h: 0,
        pad_w: 0,
        groups: 1,
    };
    assert_triple_equal(&input, &filters, &spec);
}

/// Saturation: a single extreme product overflows i32 in both
/// directions; every implementation must saturate at the same rails
/// (one product per output keeps the i64 accumulator itself safe even
/// in debug builds).
#[test]
fn pinned_saturation() {
    let input = Tensor::from_vec(Shape::new(1, 1, 1), vec![i32::MAX]);
    let filters = Filters::from_fn(2, 1, 1, 1, |k, _, _, _| if k == 0 { 2 } else { -2 });
    let spec = ConvSpec {
        out_channels: 2,
        kernel: Kernel::square(1),
        stride: 1,
        pad_h: 0,
        pad_w: 0,
        groups: 1,
    };
    assert_triple_equal(&input, &filters, &spec);
    let gemm = conv2d_gemm(&input, &filters, &spec, 1).unwrap();
    assert_eq!(gemm.as_slice(), &[i32::MAX, i32::MIN]);
}

/// Zero-padding-dominant: a 1x1 spatial input under a 3x3 kernel with
/// full padding — 8 of every 9 patch elements are implicit zeros.
#[test]
fn pinned_zero_padding_dominant() {
    let mut rng = StdRng::seed_from_u64(105);
    let input = Tensor::random(Shape::new(5, 1, 1), 64, &mut rng);
    let filters = Filters::random(7, 5, 3, 3, 16, 0.4, &mut rng);
    let spec = ConvSpec {
        out_channels: 7,
        kernel: Kernel::square(3),
        stride: 1,
        pad_h: 1,
        pad_w: 1,
        groups: 1,
    };
    assert_triple_equal(&input, &filters, &spec);
}

/// `gemm.rs`'s `MIN_PAR_MACS`: layers below it run on one worker
/// whatever `jobs` asks for, so the cases below all sit above it.
const PAR_GATE_MACS: usize = 1 << 18;

/// Worker counts the parallel cases compare against one worker: `0`
/// resolves to one per core before the work is split.
const PAR_JOBS: [usize; 4] = [0, 2, 3, 8];

/// Multiply-accumulates of `spec` over `in_shape` (depthwise layers
/// included: they have one input channel per group).
fn conv_macs(spec: &ConvSpec, in_shape: Shape, out_shape: Shape) -> usize {
    spec.out_channels
        * (in_shape.channels / spec.groups)
        * spec.kernel.height
        * spec.kernel.width
        * out_shape.plane()
}

/// A random well-formed convolution above the parallel gate: dense,
/// grouped or depthwise, with the filter (or channel) count raised until
/// the layer clears the gate.
fn parallel_conv_case() -> impl Strategy<Value = (Tensor, Filters, ConvSpec)> {
    (
        prop_oneof![Just(1usize), Just(2), Just(0)], // groups; 0 = depthwise
        1usize..=24,                                 // channels per group
        1usize..=40,                                 // filters per group
        prop_oneof![Just((1usize, 1usize)), Just((3, 3)), Just((1, 3)), Just((5, 5))],
        1usize..=2,                 // stride
        0usize..=2,                 // pad
        (8usize..=40, 8usize..=40), // input plane
        any::<u64>(),               // data seed
    )
        .prop_map(|(groups, cg, kg, (kh, kw), stride, pad, (h, w), seed)| {
            let mut rng = StdRng::seed_from_u64(seed);
            let (pad_h, pad_w) = (pad.min(kh / 2), pad.min(kw / 2));
            let (oh, ow) = ((h + 2 * pad_h - kh) / stride + 1, (w + 2 * pad_w - kw) / stride + 1);
            let per_filter = kh * kw * oh * ow;
            let (groups, cg, kg) = if groups == 0 {
                let c = cg.max(PAR_GATE_MACS.div_ceil(per_filter));
                (c, 1, 1)
            } else {
                (groups, cg, kg.max(PAR_GATE_MACS.div_ceil(groups * cg * per_filter)))
            };
            let input = Tensor::random(Shape::new(groups * cg, h, w), 64, &mut rng);
            let filters = Filters::random(groups * kg, cg, kh, kw, 16, 0.4, &mut rng);
            let spec = ConvSpec {
                out_channels: groups * kg,
                kernel: Kernel::new(kh, kw),
                stride,
                pad_h,
                pad_w,
                groups,
            };
            (input, filters, spec)
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Above the gate the work really splits: any worker count gives one
    /// worker's bits, on dense, grouped and depthwise layers.
    #[test]
    fn above_gate_gemm_is_jobs_invariant(
        (input, filters, spec) in parallel_conv_case(),
        jobs in prop_oneof![Just(0usize), Just(2), Just(3), Just(5), Just(8)],
    ) {
        let serial = conv2d_gemm(&input, &filters, &spec, 1).unwrap();
        let macs = conv_macs(&spec, input.shape(), serial.shape());
        prop_assert!(macs >= PAR_GATE_MACS, "{} MACs run serially: {:?}", macs, spec);
        prop_assert_eq!(conv2d_gemm(&input, &filters, &spec, jobs).unwrap(), serial);
    }
}

/// Asserts that a convolution above the parallel gate gives the
/// reference output at one worker and at every count in `PAR_JOBS`.
fn assert_parallel_conv_matches(input: &Tensor, filters: &Filters, spec: &ConvSpec) {
    let out = codesign_tensor::ops::conv2d(input, filters, spec).unwrap();
    let macs = conv_macs(spec, input.shape(), out.shape());
    assert!(macs >= PAR_GATE_MACS, "{macs} MACs run serially: {spec:?}");
    let serial = conv2d_gemm(input, filters, spec, 1).unwrap();
    assert_eq!(serial, out, "one worker diverged from the loop nest: {spec:?}");
    for jobs in PAR_JOBS {
        assert_eq!(conv2d_gemm(input, filters, spec, jobs).unwrap(), serial, "jobs {jobs}");
    }
}

/// A dense, unpadded or same-padded `k`x`k` layer of `filters` filters
/// over `channels` channels, with seeded data.
fn dense_case(
    seed: u64,
    channels: usize,
    plane: usize,
    filters: usize,
    k: usize,
) -> (Tensor, Filters, ConvSpec) {
    let mut rng = StdRng::seed_from_u64(seed);
    let input = Tensor::random(Shape::new(channels, plane, plane), 64, &mut rng);
    let weights = Filters::random(filters, channels, k, k, 16, 0.4, &mut rng);
    let spec = ConvSpec {
        out_channels: filters,
        kernel: Kernel::square(k),
        stride: 1,
        pad_h: k / 2,
        pad_w: k / 2,
        groups: 1,
    };
    (input, weights, spec)
}

/// One 16-filter chunk over a 56x56 plane: every task sweeps the same
/// single tap list, pointwise and 3x3.
#[test]
fn parallel_one_chunk_layers() {
    for k in [1, 3] {
        let (input, filters, spec) = dense_case(206, 32, 56, 16, k);
        assert_parallel_conv_matches(&input, &filters, &spec);
    }
}

/// 1,024 filters over a 7x7 plane: 2 column blocks, fewer than the
/// tasks two or more workers ask for, so each task gets one block.
#[test]
fn parallel_many_filters_few_blocks() {
    let (input, filters, spec) = dense_case(207, 64, 7, 1024, 1);
    assert_parallel_conv_matches(&input, &filters, &spec);
}

/// Pointwise over a 30x30 plane: 28 full blocks and a 4-pixel tail, so
/// the ranges span several full blocks and the last one ends on the
/// tail.
#[test]
fn parallel_pointwise_ranges_cut_full_and_tail_blocks() {
    let (input, filters, spec) = dense_case(208, 48, 30, 40, 1);
    assert_parallel_conv_matches(&input, &filters, &spec);
}

/// 3x3 over a 21x21 plane at strides 1 and 2: the 21x21 and 11x11
/// outputs both end in a 25-pixel tail block, more than half its lanes,
/// and their odd widths start output rows on the high half of a
/// lane-pair word.
#[test]
fn parallel_odd_width_wide_tail() {
    let (input, filters, spec) = dense_case(210, 24, 21, 40, 3);
    for stride in [1, 2] {
        let ow = (21 + 2 - 3) / stride + 1;
        assert!(ow % 2 == 1 && ow * ow % NC > NC / 2, "stride {stride}: {ow}x{ow}");
        assert_parallel_conv_matches(&input, &filters, &ConvSpec { stride, ..spec });
    }
}

/// Grouped 3x3: each group's tasks pack their own channel slice.
#[test]
fn parallel_grouped_3x3() {
    let mut rng = StdRng::seed_from_u64(209);
    let input = Tensor::random(Shape::new(32, 28, 28), 64, &mut rng);
    let filters = Filters::random(64, 16, 3, 3, 16, 0.4, &mut rng);
    let spec = ConvSpec {
        out_channels: 64,
        kernel: Kernel::square(3),
        stride: 1,
        pad_h: 1,
        pad_w: 1,
        groups: 2,
    };
    assert_parallel_conv_matches(&input, &filters, &spec);
}

/// Pointwise over a 13x13 plane whose last column block holds 9 of 32
/// pixels.
#[test]
fn parallel_pointwise_with_tail_block() {
    let mut rng = StdRng::seed_from_u64(201);
    let input = Tensor::random(Shape::new(128, 13, 13), 64, &mut rng);
    let filters = Filters::random(200, 128, 1, 1, 16, 0.4, &mut rng);
    let spec = ConvSpec {
        out_channels: 200,
        kernel: Kernel::square(1),
        stride: 1,
        pad_h: 0,
        pad_w: 0,
        groups: 1,
    };
    assert_parallel_conv_matches(&input, &filters, &spec);
}

/// Grouped pointwise: each group packs its own channel range.
#[test]
fn parallel_grouped_pointwise() {
    let mut rng = StdRng::seed_from_u64(202);
    let input = Tensor::random(Shape::new(256, 14, 14), 64, &mut rng);
    let filters = Filters::random(256, 128, 1, 1, 16, 0.4, &mut rng);
    let spec = ConvSpec {
        out_channels: 256,
        kernel: Kernel::square(1),
        stride: 1,
        pad_h: 0,
        pad_w: 0,
        groups: 2,
    };
    assert_parallel_conv_matches(&input, &filters, &spec);
}

/// Strided, padded 3x3, with a filter count that leaves a partial last
/// filter chunk.
#[test]
fn parallel_strided_padded_3x3() {
    let mut rng = StdRng::seed_from_u64(203);
    let input = Tensor::random(Shape::new(32, 29, 29), 64, &mut rng);
    let filters = Filters::random(100, 32, 3, 3, 16, 0.4, &mut rng);
    let spec = ConvSpec {
        out_channels: 100,
        kernel: Kernel::square(3),
        stride: 2,
        pad_h: 1,
        pad_w: 1,
        groups: 1,
    };
    assert_parallel_conv_matches(&input, &filters, &spec);
}

/// Depthwise, parallel over channel ranges.
#[test]
fn parallel_depthwise() {
    let mut rng = StdRng::seed_from_u64(204);
    let input = Tensor::random(Shape::new(64, 96, 96), 64, &mut rng);
    let filters = Filters::random(64, 1, 3, 3, 16, 0.4, &mut rng);
    let spec = ConvSpec {
        out_channels: 64,
        kernel: Kernel::square(3),
        stride: 1,
        pad_h: 1,
        pad_w: 1,
        groups: 64,
    };
    assert_parallel_conv_matches(&input, &filters, &spec);
}

/// Fully connected, AlexNet fc6's input width into 512 features.
#[test]
fn parallel_fully_connected() {
    let mut rng = StdRng::seed_from_u64(205);
    let input = Tensor::random(Shape::new(9216, 1, 1), 64, &mut rng);
    let weights = Filters::random(512, 9216, 1, 1, 16, 0.4, &mut rng);
    const { assert!(512 * 9216 >= PAR_GATE_MACS) };
    let want = codesign_tensor::ops::fully_connected(&input, &weights).unwrap();
    let serial = fully_connected_gemm(&input, &weights, 1).unwrap();
    assert_eq!(serial, want);
    for jobs in PAR_JOBS {
        assert_eq!(fully_connected_gemm(&input, &weights, jobs).unwrap(), serial, "jobs {jobs}");
    }
}
