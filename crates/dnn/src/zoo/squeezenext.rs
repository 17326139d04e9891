//! The SqueezeNext family (Gholami et al., 2018) and the five co-design
//! variants (v1..v5) evaluated in Figure 3 of the DAC paper.
//!
//! A SqueezeNext block is a two-stage bottleneck with separable spatial
//! convolutions and a residual shortcut:
//!
//! ```text
//! in ──1×1 (out/2)──1×1 (out/4)──1×3 (out/2)──3×1 (out/2)──1×1 (out)──+──
//!  └────────────────1×1 shortcut when shape changes────────────────────┘
//! ```
//!
//! Exact intermediate channel widths of the historical variants are
//! reconstructed from the SqueezeNext paper's description (see DESIGN.md
//! §3: documented substitution). The co-design transformations the DAC
//! paper studies are faithfully represented:
//!
//! * **v1 → v2**: first-layer filter reduction 7×7 → 5×5;
//! * **v2 → v5**: moving blocks from the low-utilization early stages to
//!   the high-utilization late stages, `[6,6,8,1] → [2,4,14,1]`.

use std::sync::OnceLock;

use crate::network::{Network, NetworkBuilder};
use crate::shape::Shape;

/// Configuration of one SqueezeNext model.
#[derive(Debug, Clone, PartialEq)]
pub struct SqueezeNextConfig {
    /// Model name, e.g. `"1.0-SqNxt-23"` or `"1.0-SqNxt-23v2"`.
    pub name: String,
    /// Channel width multiplier (1.0, 1.5, 2.0 published).
    pub width: f64,
    /// Blocks per stage; the baseline 23-layer model is `[6, 6, 8, 1]`.
    pub stage_blocks: [usize; 4],
    /// First-layer filter size (7 in the baseline, 5 after co-design).
    pub conv1_kernel: usize,
    /// Published (or interpolated; see module docs) ImageNet top-1 accuracy.
    pub top1_accuracy: f64,
}

impl SqueezeNextConfig {
    /// The baseline 1.0-SqNxt-23 configuration (identical to
    /// [`squeezenext_variant`] `1`).
    pub fn baseline() -> Self {
        variant_config(1)
    }

    /// Builds the network for this configuration.
    pub fn build(&self) -> Network {
        let w = |c: usize| ((c as f64 * self.width).round() as usize).max(1);
        let mut b = NetworkBuilder::new(self.name.clone(), Shape::new(3, 227, 227));
        b.conv("conv1", w(64), self.conv1_kernel, 2, 0);
        b.max_pool("pool1", 3, 2);

        let stage_channels = [w(32), w(64), w(128), w(256)];
        for (stage, (&blocks, &out)) in
            self.stage_blocks.iter().zip(stage_channels.iter()).enumerate()
        {
            for block in 0..blocks {
                let stride = if stage > 0 && block == 0 { 2 } else { 1 };
                append_block(&mut b, stage + 1, block + 1, out, stride);
            }
        }
        b.pointwise_conv("conv_final", w(128));
        b.global_avg_pool("pool_final");
        b.fully_connected("fc", 1000);
        b.top1_accuracy(self.top1_accuracy);
        b.finish()
            .unwrap_or_else(|e| unreachable!("SqueezeNext definition is shape-consistent: {e}"))
    }
}

/// Appends one SqueezeNext bottleneck block. `stride` is applied at the
/// first reduction conv (and the shortcut).
fn append_block(b: &mut NetworkBuilder, stage: usize, block: usize, out: usize, stride: usize) {
    let p = format!("s{stage}b{block}");
    let in_shape = b.current_shape();
    let block_input = b.last_layer_name().map(str::to_owned);
    let needs_shortcut = stride != 1 || in_shape.channels != out;
    let reduce1 = format!("{p}/reduce1");
    let expand = format!("{p}/expand");
    b.conv(&reduce1, (out / 2).max(1), 1, stride, 0);
    b.pointwise_conv(&format!("{p}/reduce2"), (out / 4).max(1));
    b.conv_rect(&format!("{p}/conv1x3"), (out / 2).max(1), 1, 3, 1);
    b.conv_rect(&format!("{p}/conv3x1"), (out / 2).max(1), 3, 1, 1);
    b.pointwise_conv(&expand, out);
    if needs_shortcut {
        // The shortcut conv reads the block input; append it after the
        // body by branching back to reduce1's input, then merge. The
        // network is a linearized DAG; the accelerator runs layers in
        // order either way.
        let shortcut = format!("{p}/shortcut");
        b.branch_from_input_of(&reduce1);
        b.conv(&shortcut, out, 1, stride, 0);
        b.branch_from(&expand);
        b.eltwise_add(&format!("{p}/add"), Some(&shortcut));
    } else {
        b.eltwise_add(&format!("{p}/add"), block_input.as_deref());
    }
}

/// Co-design variant `v` (1..=5) of 1.0-SqNxt-23, as swept in Figure 3,
/// built once per process.
///
/// # Panics
///
/// Panics if `v` is not in `1..=5`.
pub fn squeezenext_variant(v: usize) -> Network {
    static NETS: [OnceLock<Network>; 5] = [const { OnceLock::new() }; 5];
    assert!((1..=5).contains(&v), "SqueezeNext variant must be in 1..=5, got {v}");
    NETS[v - 1].get_or_init(|| variant_config(v).build()).clone()
}

/// The configuration of variant `v`, which callers keep in `1..=5`.
pub(super) fn variant_config(v: usize) -> SqueezeNextConfig {
    // Depth reallocation and accuracy trajectory: the DAC paper reports the
    // optimized variants have "slightly better accuracy", ending at 59.2 %
    // top-1. Intermediate accuracies are interpolated (documented
    // assumption).
    let (stage_blocks, conv1_kernel, acc) = match v {
        1 => ([6, 6, 8, 1], 7, 58.2),
        2 => ([6, 6, 8, 1], 5, 58.5),
        3 => ([4, 8, 8, 1], 5, 58.9),
        4 => ([2, 10, 8, 1], 5, 59.1),
        _ => ([2, 4, 14, 1], 5, 59.2),
    };
    SqueezeNextConfig {
        name: format!("1.0-SqNxt-23v{v}"),
        width: 1.0,
        stage_blocks,
        conv1_kernel,
        top1_accuracy: acc,
    }
}

/// The final co-designed model (`1.0-SqNxt-23v5`) — "SqueezeNext" in the
/// paper's Tables 1 and 2.
pub fn squeezenext() -> Network {
    squeezenext_variant(5)
}

/// All five Figure-3 variants in order v1..v5.
pub fn squeezenext_variants() -> Vec<Network> {
    (1..=5).map(squeezenext_variant).collect()
}

/// The width/depth family plotted in Figure 4, built once per process.
///
/// Depth configurations for the 34- and 44-layer models and accuracies for
/// the scaled models follow the SqueezeNext paper (±: reconstructed, see
/// module docs).
pub fn squeezenext_family() -> Vec<Network> {
    static NETS: OnceLock<Vec<Network>> = OnceLock::new();
    NETS.get_or_init(build_family).clone()
}

/// Builds every Figure-4 SqueezeNext model.
pub(super) fn build_family() -> Vec<Network> {
    let points = [
        ("1.0-SqNxt-23", 1.0, [2, 4, 14, 1], 59.2),
        ("1.0-SqNxt-34", 1.0, [8, 10, 12, 2], 61.4),
        ("1.0-SqNxt-44", 1.0, [10, 14, 16, 2], 62.6),
        ("1.5-SqNxt-23", 1.5, [2, 4, 14, 1], 63.5),
        ("2.0-SqNxt-23", 2.0, [2, 4, 14, 1], 67.2),
    ];
    points
        .iter()
        .map(|(name, width, blocks, acc)| {
            SqueezeNextConfig {
                name: (*name).to_owned(),
                width: *width,
                stage_blocks: *blocks,
                conv1_kernel: 5,
                top1_accuracy: *acc,
            }
            .build()
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layer::LayerClass;
    use crate::stats::MacBreakdown;

    #[test]
    fn baseline_shapes() {
        let net = squeezenext_variant(1);
        assert_eq!(net.layer("conv1").unwrap().output, Shape::new(64, 111, 111));
        // Stage 1 keeps 55x55 with 32 channels.
        assert_eq!(net.layer("s1b1/add").unwrap().output.channels, 32);
        // Stage 4 output is 256 channels at 7x7.
        let s4 = net.layer("s4b1/add").unwrap().output;
        assert_eq!(s4.channels, 256);
        assert_eq!(net.output(), Shape::vector(1000));
    }

    #[test]
    fn table1_row_for_v5() {
        // Table 1 SqueezeNext: Conv1 16%, 1x1 44%, FxF 40%, DW 0%.
        // Our reconstruction (parameters match the published 0.72 M, MACs
        // land at 224 M) weights conv1 more heavily (26.9/39.2/33.9) —
        // the paper's exact channel widths are unpublished. Assert the
        // qualitative shape: no DW, 1x1 > FxF, all three classes
        // significant. The absolute delta is recorded in EXPERIMENTS.md.
        let b = MacBreakdown::of(&squeezenext());
        assert_eq!(b.macs(LayerClass::Depthwise), 0);
        assert_eq!(b.macs(LayerClass::FullyConnected), 128 * 1000);
        assert!(b.percent(LayerClass::FirstConv) > 10.0);
        assert!(b.percent(LayerClass::Pointwise) > b.percent(LayerClass::Spatial));
        assert!(b.percent(LayerClass::Spatial) > 25.0);
    }

    #[test]
    fn v2_shrinks_first_layer_only() {
        let v1 = squeezenext_variant(1);
        let v2 = squeezenext_variant(2);
        let c1v1 = v1.layer("conv1").unwrap().macs();
        let c1v2 = v2.layer("conv1").unwrap().macs();
        assert!(c1v2 * 3 < c1v1 * 2, "5x5 should cut conv1 MACs by ~half");
        // Block structure unchanged.
        assert_eq!(
            v1.layers().iter().filter(|l| l.name.contains("reduce1")).count(),
            v2.layers().iter().filter(|l| l.name.contains("reduce1")).count()
        );
    }

    #[test]
    fn v5_reallocates_depth_to_late_stages() {
        let v5 = squeezenext_variant(5);
        let count = |stage: usize| {
            v5.layers()
                .iter()
                .filter(|l| l.name.starts_with(&format!("s{stage}b")) && l.name.ends_with("add"))
                .count()
        };
        assert_eq!(count(1), 2);
        assert_eq!(count(2), 4);
        assert_eq!(count(3), 14);
        assert_eq!(count(4), 1);
    }

    #[test]
    fn variants_keep_total_macs_similar() {
        // "a very small change in the overall MACs used in inference"
        let v1 = squeezenext_variant(1).total_macs() as f64;
        for v in 2..=5 {
            let m = squeezenext_variant(v).total_macs() as f64;
            assert!(
                (m / v1 - 1.0).abs() < 0.30,
                "variant {v}: {m} vs baseline {v1} differs by more than 30%"
            );
        }
    }

    #[test]
    fn params_are_sub_alexnet() {
        // SqueezeNext-23 is designed for small model size (~0.7 M params).
        let p = squeezenext().total_params();
        assert!(p < 2_000_000, "params = {p}");
    }

    #[test]
    fn family_is_monotone_in_accuracy_and_macs() {
        let family = squeezenext_family();
        assert_eq!(family.len(), 5);
        for net in &family {
            assert!(net.top1_accuracy().is_some());
        }
        // Wider models cost more MACs.
        let m10 = family[0].total_macs();
        let m15 = family[3].total_macs();
        let m20 = family[4].total_macs();
        assert!(m10 < m15 && m15 < m20);
    }

    #[test]
    #[should_panic(expected = "variant must be in 1..=5")]
    fn variant_bounds() {
        let _ = squeezenext_variant(6);
    }

    #[test]
    fn shortcuts_exist_only_on_shape_change() {
        let net = squeezenext_variant(1);
        // First block of stage 1 changes channels 64 -> 32: shortcut.
        assert!(net.layer("s1b1/shortcut").is_some());
        // Second block of stage 1 is identity: no shortcut.
        assert!(net.layer("s1b2/shortcut").is_none());
        // First block of stage 2 strides: shortcut.
        assert!(net.layer("s2b1/shortcut").is_some());
    }
}
