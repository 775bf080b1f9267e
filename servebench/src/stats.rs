//! Percentiles over raw nanosecond samples.

/// Nearest-rank quantile `q` of `samples` (sorted in place); 0 when
/// there are none.
pub fn quantile(samples: &mut [i64], q: f64) -> i64 {
    if samples.is_empty() {
        return 0;
    }
    samples.sort_unstable();
    let rank = (q * samples.len() as f64).ceil() as usize;
    samples[rank.clamp(1, samples.len()) - 1]
}

/// Nearest-rank quantile of nanosecond samples, in microseconds.
pub fn quantile_us(samples: &mut [i64], q: f64) -> f64 {
    quantile(samples, q) as f64 / 1e3
}

/// Median of a small set of floats (set-up repeats).
pub fn median(values: &mut [f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    values.sort_by(f64::total_cmp);
    let n = values.len();
    match n % 2 {
        1 => values[n / 2],
        _ => (values[n / 2 - 1] + values[n / 2]) / 2.0,
    }
}
