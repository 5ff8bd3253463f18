//! Order statistics, metric names and the result line.

use std::fmt::Write as _;

/// Median of `values` (mean of the middle pair for an even count), or
/// `None` when empty. Matches Python's `statistics.median`.
pub fn median(values: &[f64]) -> Option<f64> {
    let s = sorted(values);
    let n = s.len();
    match n {
        0 => None,
        _ if n % 2 == 1 => Some(s[n / 2]),
        _ => Some((s[n / 2 - 1] + s[n / 2]) / 2.0),
    }
}

/// First and third quartiles by Python's default
/// `statistics.quantiles(values, n=4)` ("exclusive" method), or `None`
/// with fewer than two values.
pub fn quartiles(values: &[f64]) -> Option<(f64, f64)> {
    let s = sorted(values);
    let ld = s.len();
    if ld < 2 {
        return None;
    }
    let m = ld as i64 + 1;
    let q = |i: i64| {
        let j = (i * m / 4).clamp(1, ld as i64 - 1);
        // negative when the clamp moved j up: Python extrapolates there
        let delta = (i * m - j * 4) as f64;
        let j = j as usize;
        (s[j - 1] * (4.0 - delta) + s[j] * delta) / 4.0
    };
    Some((q(1), q(3)))
}

/// Nearest-rank percentile (`p` in `(0, 100]`): the smallest value with
/// at least `p`% of the sample at or below it. With 1000 values, p99 is
/// the 990th smallest, so ten values lie beyond it.
pub fn percentile(values: &[f64], p: f64) -> Option<f64> {
    let s = sorted(values);
    if s.is_empty() {
        return None;
    }
    let rank = ((p / 100.0) * s.len() as f64).ceil().max(1.0) as usize;
    Some(s[rank.min(s.len()) - 1])
}

fn sorted(values: &[f64]) -> Vec<f64> {
    let mut s = values.to_vec();
    s.sort_by(f64::total_cmp);
    s
}

#[cfg(test)]
/// Whether `name` is a valid metric name: 1 to 64 characters from
/// `[A-Za-z0-9_.-]`, starting with a letter or digit.
pub fn valid_name(name: &str) -> bool {
    (1..=64).contains(&name.len())
        && name.starts_with(|c: char| c.is_ascii_alphanumeric())
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

/// One measured value.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Catalogue name.
    pub name: String,
    /// Measured value.
    pub value: f64,
    /// Unit, from the catalogue.
    pub unit: &'static str,
}

/// The final stdout line: `{"correct", "attempted", "failed", "metrics"}`.
pub fn result_json(correct: bool, attempted: u64, failed: u64, metrics: &[Metric]) -> String {
    let mut out = format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{"
    );
    for (i, m) in metrics.iter().enumerate() {
        let sep = if i == 0 { "" } else { ", " };
        let _ = write!(
            out,
            "{sep}\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
            m.name, m.value, m.unit
        );
    }
    out.push_str("}}");
    out
}

/// Reads `(name, value)` pairs back out of a [`result_json`] line, plus
/// its `correct` flag. Understands exactly the format written above.
pub fn parse_result(line: &str) -> Option<(bool, Vec<(String, f64)>)> {
    let correct = line.contains("\"correct\": true");
    let body = &line[line.find("\"metrics\": {")? + 12..];
    let mut out = Vec::new();
    let mut rest = body;
    while let Some(open) = rest.find('"') {
        let after = &rest[open + 1..];
        let close = after.find('"')?;
        let name = &after[..close];
        let tail = &after[close..];
        let vstart = tail.find("\"value\": ")? + 9;
        let vlen = tail[vstart..].find(',')?;
        out.push((name.to_string(), tail[vstart..vstart + vlen].parse().ok()?));
        rest = &tail[tail.find('}')? + 1..];
    }
    Some((correct, out))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_handles_odd_even_and_empty() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
        assert_eq!(median(&[]), None);
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..=10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), Some((2.75, 8.25)));
        // statistics.quantiles([1, 2, 3], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), Some((1.0, 3.0)));
        // statistics.quantiles([5, 7], n=4) == [4.5, 6.0, 7.5]
        assert_eq!(quartiles(&[7.0, 5.0]), Some((4.5, 7.5)));
        assert_eq!(quartiles(&[1.0]), None);
    }

    #[test]
    fn nearest_rank_percentile_leaves_ten_beyond_p99_of_1000() {
        let v: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(percentile(&v, 99.0), Some(990.0));
        assert_eq!(percentile(&v, 50.0), Some(500.0));
        assert_eq!(percentile(&[7.0], 99.0), Some(7.0));
        assert_eq!(percentile(&[], 50.0), None);
    }

    #[test]
    fn metric_names_are_validated() {
        for ok in ["setup_s", "xbar.exec_s.c1", "p99-us", "9lives"] {
            assert!(valid_name(ok), "{ok}");
        }
        for bad in [
            "",
            ".hidden",
            "_x",
            "has space",
            "ünit",
            "a/b",
            &"x".repeat(65),
        ] {
            assert!(!valid_name(bad), "{bad}");
        }
    }

    #[test]
    fn result_line_roundtrips() {
        let metrics = vec![
            Metric {
                name: "a_s".into(),
                value: 0.125,
                unit: "s",
            },
            Metric {
                name: "b.c".into(),
                value: 3.0e-7,
                unit: "count",
            },
        ];
        let line = result_json(true, 5, 0, &metrics);
        assert!(line.starts_with("{\"correct\": true, \"attempted\": 5, \"failed\": 0,"));
        let (correct, parsed) = parse_result(&line).unwrap();
        assert!(correct);
        assert_eq!(parsed, vec![("a_s".into(), 0.125), ("b.c".into(), 3.0e-7)]);
    }
}
