//! Symmetric integer quantization.
//!
//! The Squeezelerator's PE carries "a 16-bit integer multiplier" — real
//! deployments quantize trained floating-point weights and activations
//! into that range. This module provides the symmetric (zero-point-free)
//! scheme such datapaths use, plus the error metrics needed to check a
//! chosen bit width.

use std::fmt;

/// A symmetric quantization scale: `real = quantized * scale`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct QuantScale {
    scale: f32,
    bits: u32,
}

impl QuantScale {
    /// Calibrates a scale so that `max_abs` maps to the largest code of a
    /// signed `bits`-bit integer.
    ///
    /// # Panics
    ///
    /// Panics if `bits` is not in `2..=31` or `max_abs` is not finite and
    /// positive.
    pub fn calibrate(max_abs: f32, bits: u32) -> Self {
        assert!((2..=31).contains(&bits), "bit width must be in 2..=31");
        assert!(max_abs.is_finite() && max_abs > 0.0, "max_abs must be positive");
        let qmax = ((1i64 << (bits - 1)) - 1) as f32;
        Self { scale: max_abs / qmax, bits }
    }

    /// Calibrates from data: uses the maximum absolute value seen.
    /// Returns `None` for empty or all-zero data.
    pub fn calibrate_from(values: &[f32], bits: u32) -> Option<Self> {
        let max_abs = values.iter().fold(0.0f32, |m, v| m.max(v.abs()));
        (max_abs > 0.0 && max_abs.is_finite()).then(|| Self::calibrate(max_abs, bits))
    }

    /// The real value one integer step represents.
    pub fn step(&self) -> f32 {
        self.scale
    }

    /// The bit width this scale was calibrated for.
    pub fn bits(&self) -> u32 {
        self.bits
    }

    /// Largest representable code.
    pub fn qmax(&self) -> i32 {
        ((1i64 << (self.bits - 1)) - 1) as i32
    }

    /// Quantizes one value (round-to-nearest, saturating).
    pub fn quantize(&self, value: f32) -> i32 {
        let q = (value / self.scale).round();
        q.clamp(-(self.qmax() as f32), self.qmax() as f32) as i32
    }

    /// Dequantizes one code.
    pub fn dequantize(&self, code: i32) -> f32 {
        code as f32 * self.scale
    }
}

impl fmt::Display for QuantScale {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "q{}: step {:.3e}", self.bits, self.scale)
    }
}

/// Signal-to-quantization-noise ratio in dB of quantizing `values` with
/// `scale`. Higher is better; 16-bit symmetric quantization of
/// well-scaled data lands near 90 dB.
pub fn sqnr_db(values: &[f32], scale: &QuantScale) -> f64 {
    let mut signal = 0.0f64;
    let mut noise = 0.0f64;
    for &v in values {
        let r = scale.dequantize(scale.quantize(v));
        signal += f64::from(v) * f64::from(v);
        let e = f64::from(v - r);
        noise += e * e;
    }
    if noise == 0.0 {
        f64::INFINITY
    } else {
        10.0 * (signal / noise).log10()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trip_is_close() {
        let s = QuantScale::calibrate(1.0, 16);
        for v in [-1.0f32, -0.5, 0.0, 0.123, 0.999] {
            let r = s.dequantize(s.quantize(v));
            assert!((r - v).abs() <= s.step(), "{v} -> {r}");
        }
    }

    #[test]
    fn saturates_out_of_range() {
        let s = QuantScale::calibrate(1.0, 8);
        assert_eq!(s.quantize(10.0), 127);
        assert_eq!(s.quantize(-10.0), -127);
    }

    #[test]
    fn sixteen_bits_beat_eight() {
        let values: Vec<f32> = (0..1000).map(|i| ((i as f32) * 0.37).sin()).collect();
        let s8 = QuantScale::calibrate_from(&values, 8).unwrap();
        let s16 = QuantScale::calibrate_from(&values, 16).unwrap();
        let (snr8, snr16) = (sqnr_db(&values, &s8), sqnr_db(&values, &s16));
        assert!(snr16 > snr8 + 40.0, "8-bit {snr8:.1} dB vs 16-bit {snr16:.1} dB");
        assert!(snr16 > 80.0);
    }

    #[test]
    fn calibrate_from_rejects_degenerate_data() {
        assert!(QuantScale::calibrate_from(&[], 8).is_none());
        assert!(QuantScale::calibrate_from(&[0.0, 0.0], 8).is_none());
    }

    #[test]
    #[should_panic(expected = "bit width")]
    fn bad_bit_width_rejected() {
        let _ = QuantScale::calibrate(1.0, 1);
    }

    #[test]
    fn display_mentions_bits() {
        let s = QuantScale::calibrate(1.0, 16);
        assert!(s.to_string().starts_with("q16"));
    }

    #[test]
    fn widest_scale_stays_inside_i32() {
        // 31-bit codes are the widest the i32 substrate can carry:
        // qmax must stay below i32::MAX and the clamp must hold for
        // inputs far past calibration, including infinities.
        let s = QuantScale::calibrate(1.0, 31);
        assert_eq!(s.qmax(), (1 << 30) - 1);
        assert!(s.qmax() < i32::MAX);
        // The clamp rail passes through f32, which cannot represent
        // 2^30 - 1 exactly and rounds it up to 2^30 — so saturated codes
        // may exceed qmax by one ulp of the rail, but always stay well
        // inside i32.
        let rail = s.qmax() as f32 as i64;
        for v in [f32::MAX, f32::INFINITY] {
            let q = s.quantize(v) as i64;
            assert!((s.qmax() as i64..=rail).contains(&q), "{v} -> {q}");
            assert_eq!(s.quantize(-v) as i64, -q);
        }
        // At 30 bits and below the rail is exact and saturation lands
        // on qmax itself.
        let s = QuantScale::calibrate(1.0, 24);
        assert_eq!(s.quantize(f32::MAX), s.qmax());
        assert_eq!(s.quantize(f32::NEG_INFINITY), -s.qmax());
    }

    #[test]
    fn dequantize_handles_extreme_codes() {
        // Codes at the i32 rails dequantize to finite values — scale is
        // finite and |code| <= |i32::MIN| < 2^31, well inside f32 range.
        let s = QuantScale::calibrate(1.0, 8);
        assert!(s.dequantize(i32::MAX).is_finite());
        assert!(s.dequantize(i32::MIN).is_finite());
        assert!(s.dequantize(i32::MIN) < 0.0 && s.dequantize(i32::MAX) > 0.0);
        // Round-tripping a saturated quantization stays at the rail.
        assert_eq!(s.quantize(s.dequantize(s.qmax()) * 100.0), s.qmax());
    }
}
