//! Order statistics over timing samples.

/// Linear-interpolation quantile (`q` in `0..=1`) of `samples`; `NaN`
/// for an empty set.
pub fn quantile(samples: &[f64], q: f64) -> f64 {
    if samples.is_empty() {
        return f64::NAN;
    }
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

/// Median of `samples`.
pub fn median(samples: &[f64]) -> f64 {
    quantile(samples, 0.5)
}

/// Means of consecutive runs of `samples`, each run long enough that its
/// samples add up to at least `min_total` (a short tail is dropped unless
/// it is all there is). A median over these is steady where single
/// samples fall into two modes and their own median jumps between the
/// modes from run to run.
pub fn batch_means(samples: &[f64], min_total: f64) -> Vec<f64> {
    let mut means = Vec::new();
    let (mut sum, mut n) = (0.0, 0usize);
    for &x in samples {
        sum += x;
        n += 1;
        if sum >= min_total {
            means.push(sum / n as f64);
            (sum, n) = (0.0, 0);
        }
    }
    if means.is_empty() && n > 0 {
        means.push(sum / n as f64);
    }
    means
}

/// The highest of p99/p95/p90/p50 that leaves at least ten samples
/// above it, as `(percentile, value)`; `None` below 20 samples.
pub fn tail(samples: &[f64]) -> Option<(u32, f64)> {
    [99u32, 95, 90, 50].into_iter().find_map(|p| {
        let beyond = samples.len() as f64 * (1.0 - f64::from(p) / 100.0);
        (beyond >= 10.0).then(|| (p, quantile(samples, f64::from(p) / 100.0)))
    })
}

/// One printed summary row: name, unit, median, quartiles, tail and
/// sample count.
pub fn summary_line(name: &str, unit: &str, samples: &[f64]) -> String {
    let tail = tail(samples).map_or_else(String::new, |(p, v)| format!(" p{p}={v:.4}"));
    format!(
        "# {name:<28} {unit:<7} median={:.4} q1={:.4} q3={:.4}{tail} n={}",
        median(samples),
        quantile(samples, 0.25),
        quantile(samples, 0.75),
        samples.len()
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate() {
        let v = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(median(&v), 2.5);
        assert_eq!(quantile(&v, 0.0), 1.0);
        assert_eq!(quantile(&v, 1.0), 4.0);
        assert!(tail(&v).is_none());
        let many: Vec<f64> = (0..200).map(f64::from).collect();
        assert_eq!(tail(&many).map(|t| t.0), Some(95));
        assert_eq!(batch_means(&[1.0, 3.0, 4.0, 2.0, 1.0], 4.0), vec![2.0, 4.0]);
        assert_eq!(batch_means(&[1.0, 2.0], 10.0), vec![1.5]);
    }
}
