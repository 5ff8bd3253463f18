//! Minimal ASCII charts for the figure experiments — the only
//! "plotting" available in a terminal-only environment — and the
//! streaming latency histogram of the serving experiment.

/// Renders horizontal bars, one per `(label, value)`, scaled to
/// `max_width` characters. Values must be non-negative; the scale is
/// anchored at the maximum value.
pub fn bar_chart(rows: &[(String, f64)], max_width: usize) -> String {
    let max = rows.iter().map(|(_, v)| *v).fold(0.0f64, f64::max);
    let label_w = rows.iter().map(|(l, _)| l.len()).max().unwrap_or(0);
    let mut out = String::new();
    for (label, value) in rows {
        let filled = if max > 0.0 {
            ((value / max) * max_width as f64).round() as usize
        } else {
            0
        };
        out.push_str(&format!(
            "{label:<label_w$} | {}{} {value:.4}\n",
            "█".repeat(filled),
            " ".repeat(max_width.saturating_sub(filled)),
        ));
    }
    out
}

/// Renders two series on a shared log-y ASCII grid (used for the Fig. 1b
/// variance curves). `a` and `b` must be positive and the same length as
/// `xs`.
pub fn dual_log_chart(
    xs: &[usize],
    a: &[f64],
    a_mark: char,
    b: &[f64],
    b_mark: char,
    height: usize,
) -> String {
    assert_eq!(xs.len(), a.len());
    assert_eq!(xs.len(), b.len());
    let all: Vec<f64> = a.iter().chain(b).copied().collect();
    let lo = all.iter().copied().fold(f64::INFINITY, f64::min).ln();
    let hi = all.iter().copied().fold(f64::NEG_INFINITY, f64::max).ln();
    let span = (hi - lo).max(1e-9);
    let row_of = |v: f64| -> usize {
        let frac = (v.ln() - lo) / span;
        ((1.0 - frac) * (height - 1) as f64).round() as usize
    };
    let mut grid = vec![vec![' '; xs.len() * 4]; height];
    for (i, (&va, &vb)) in a.iter().zip(b).enumerate() {
        let col = i * 4 + 1;
        grid[row_of(va)][col] = a_mark;
        let rb = row_of(vb);
        if grid[rb][col] == a_mark && (va - vb).abs() < 1e-12 {
            grid[rb][col] = '*'; // overlap marker
        } else {
            grid[rb][col + 1] = b_mark;
        }
    }
    let mut out = String::new();
    for row in grid {
        out.push('|');
        out.extend(row);
        out.push('\n');
    }
    out.push('+');
    out.push_str(&"-".repeat(xs.len() * 4));
    out.push('\n');
    out.push(' ');
    for &x in xs {
        out.push_str(&format!("{x:<4}"));
    }
    out.push('\n');
    out
}

/// A streaming latency histogram with logarithmic buckets, sized for
/// tail-quantile estimation (p50/p95/p99) over unbounded sample streams
/// in O(1) memory.
///
/// Buckets grow geometrically (each ~5% wider than the last), so
/// the quantile error is bounded by the bucket width at any scale — the
/// standard HDR-histogram trade-off, without retaining samples.
#[derive(Debug, Clone)]
pub struct StreamingHistogram {
    /// Per-bucket counts keyed by bucket index (sparse).
    buckets: std::collections::BTreeMap<i32, u64>,
    count: u64,
    sum: f64,
    min: f64,
    max: f64,
}

/// Geometric growth factor between histogram bucket edges.
const GROWTH: f64 = 1.05;

impl Default for StreamingHistogram {
    fn default() -> Self {
        Self::new()
    }
}

impl StreamingHistogram {
    /// A histogram with ~5%-wide geometric buckets.
    pub fn new() -> Self {
        Self {
            buckets: std::collections::BTreeMap::new(),
            count: 0,
            sum: 0.0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
        }
    }

    fn bucket_of(value: f64) -> i32 {
        if value <= 0.0 {
            return i32::MIN;
        }
        (value.ln() / GROWTH.ln()).floor() as i32
    }

    /// Representative (geometric midpoint) value of a bucket.
    fn bucket_value(bucket: i32) -> f64 {
        if bucket == i32::MIN {
            return 0.0;
        }
        GROWTH.powf(f64::from(bucket) + 0.5)
    }

    /// Records one sample. Non-finite samples are ignored; zeros and
    /// negatives land in a dedicated underflow bucket.
    pub fn record(&mut self, value: f64) {
        if !value.is_finite() {
            return;
        }
        *self.buckets.entry(Self::bucket_of(value)).or_insert(0) += 1;
        self.count += 1;
        self.sum += value;
        self.min = self.min.min(value);
        self.max = self.max.max(value);
    }

    /// Number of recorded samples.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Mean of recorded samples (0 when empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum / self.count as f64
        }
    }

    /// Smallest recorded sample (0 when empty).
    pub fn min(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.min
        }
    }

    /// Largest recorded sample (0 when empty).
    pub fn max(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.max
        }
    }

    /// The `q`-quantile (`q` in `[0, 1]`) estimated from bucket
    /// midpoints, clamped to the observed min/max. Returns 0 when
    /// empty.
    pub fn quantile(&self, q: f64) -> f64 {
        if self.count == 0 {
            return 0.0;
        }
        if q <= 0.0 {
            return self.min;
        }
        if q >= 1.0 {
            return self.max;
        }
        let rank = (q * self.count as f64).ceil().max(1.0) as u64;
        let mut seen = 0u64;
        for (&bucket, &n) in &self.buckets {
            seen += n;
            if seen >= rank {
                return Self::bucket_value(bucket).clamp(self.min, self.max);
            }
        }
        self.max
    }

    /// Median (p50).
    pub fn p50(&self) -> f64 {
        self.quantile(0.50)
    }

    /// 95th percentile.
    pub fn p95(&self) -> f64 {
        self.quantile(0.95)
    }

    /// 99th percentile.
    pub fn p99(&self) -> f64 {
        self.quantile(0.99)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bar_chart_scales_to_max() {
        let rows = vec![("a".to_string(), 1.0), ("bb".to_string(), 2.0)];
        let chart = bar_chart(&rows, 10);
        let lines: Vec<&str> = chart.lines().collect();
        assert_eq!(lines.len(), 2);
        assert!(lines[1].matches('█').count() == 10);
        assert!(lines[0].matches('█').count() == 5);
        assert!(lines[0].starts_with("a  |"));
    }

    #[test]
    fn bar_chart_handles_zero_max() {
        let rows = vec![("x".to_string(), 0.0)];
        let chart = bar_chart(&rows, 8);
        assert!(!chart.contains('█'));
    }

    #[test]
    fn dual_log_chart_places_extremes() {
        let xs = [1usize, 2, 3];
        let a = [1.0, 0.5, 0.25];
        let b = [1.0, 0.1, 0.01];
        let chart = dual_log_chart(&xs, &a, 'o', &b, 'x', 8);
        // both series start at the same top row; b ends at the bottom
        let lines: Vec<&str> = chart.lines().collect();
        assert!(lines[0].contains('*') || lines[0].contains('o'));
        assert!(lines[7].contains('x'));
        assert!(chart.ends_with("1   2   3   \n"));
    }

    #[test]
    #[should_panic]
    fn dual_log_chart_length_mismatch_panics() {
        dual_log_chart(&[1, 2], &[1.0], 'o', &[1.0, 2.0], 'x', 4);
    }

    #[test]
    fn histogram_empty_is_zeroed() {
        let h = StreamingHistogram::new();
        assert_eq!(h.count(), 0);
        assert_eq!(h.mean(), 0.0);
        assert_eq!(h.p50(), 0.0);
        assert_eq!(h.p99(), 0.0);
        assert_eq!(h.min(), 0.0);
        assert_eq!(h.max(), 0.0);
    }

    #[test]
    fn histogram_quantiles_bounded_by_bucket_width() {
        let mut h = StreamingHistogram::new();
        // uniform 1..=1000: p50 ≈ 500, p95 ≈ 950, p99 ≈ 990
        for i in 1..=1000 {
            h.record(f64::from(i));
        }
        assert_eq!(h.count(), 1000);
        assert!((h.mean() - 500.5).abs() < 1e-9);
        for (q, expect) in [(0.50, 500.0), (0.95, 950.0), (0.99, 990.0)] {
            let got = h.quantile(q);
            // log buckets at 5% growth → ≤ ~5% relative error
            assert!(
                (got - expect).abs() / expect < 0.06,
                "q{q}: got {got}, expected ~{expect}"
            );
        }
        assert_eq!(h.quantile(0.0), h.min());
        assert_eq!(h.quantile(1.0), h.max());
    }

    #[test]
    fn histogram_clamps_to_observed_range() {
        let mut h = StreamingHistogram::new();
        h.record(7.0);
        assert_eq!(h.p50(), 7.0);
        assert_eq!(h.p99(), 7.0);
        assert_eq!(h.min(), 7.0);
        assert_eq!(h.max(), 7.0);
    }

    #[test]
    fn histogram_handles_zero_and_rejects_non_finite() {
        let mut h = StreamingHistogram::new();
        h.record(0.0);
        h.record(-3.0);
        h.record(f64::NAN);
        h.record(f64::INFINITY);
        assert_eq!(h.count(), 2); // zero + negative recorded, non-finite dropped
        assert_eq!(h.min(), -3.0);
        // both live in the underflow bucket, whose midpoint is 0
        assert_eq!(h.p50(), 0.0);
    }

    #[test]
    fn histogram_tail_dominated_stream() {
        let mut h = StreamingHistogram::new();
        // 95 fast + 5 slow: p50 stays fast, p99 jumps to the tail
        for _ in 0..95 {
            h.record(10.0);
        }
        for _ in 0..5 {
            h.record(10_000.0);
        }
        assert!(h.p50() < 11.0);
        assert!(h.p99() > 9_000.0);
    }
}
