//! Exact order statistics over raw samples.
//!
//! Every latency is kept as a raw sample and every percentile is read from
//! the sorted samples, so a reported quantile moves with the data and not in
//! the ~6 % steps of a log-bucketed histogram.

/// A set of raw samples (microseconds, milliseconds, seconds — the caller
/// chooses the unit and keeps to it).
#[derive(Debug, Default, Clone)]
pub struct Samples {
    values: Vec<f64>,
}

impl Samples {
    pub fn push(&mut self, value: f64) {
        self.values.push(value);
    }

    pub fn extend(&mut self, other: &Samples) {
        self.values.extend_from_slice(&other.values);
    }

    pub fn len(&self) -> usize {
        self.values.len()
    }

    pub fn sum(&self) -> f64 {
        self.values.iter().sum()
    }

    /// The `q`-quantile (`0 ≤ q ≤ 1`), linearly interpolated between the two
    /// nearest order statistics; `0.0` when there are no samples.
    pub fn quantile(&self, q: f64) -> f64 {
        quantile(&self.values, q)
    }

    pub fn median(&self) -> f64 {
        self.quantile(0.5)
    }
}

/// The `q`-quantile of `values`, linearly interpolated between the two
/// nearest order statistics; `0.0` for an empty slice.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
}

pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate_between_order_statistics() {
        let mut s = Samples::default();
        for v in [4.0, 1.0, 3.0, 2.0] {
            s.push(v);
        }
        assert_eq!(s.quantile(0.0), 1.0);
        assert_eq!(s.quantile(1.0), 4.0);
        assert_eq!(s.median(), 2.5);
        assert_eq!(median(&[5.0, 1.0, 3.0]), 3.0);
        assert_eq!(Samples::default().median(), 0.0);
    }
}
