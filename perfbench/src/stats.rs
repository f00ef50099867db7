//! Sample statistics: medians, and tail percentiles that are only reported
//! when the sample supports them.
//!
//! A latency sample holds one value per attempted request.  A request that
//! failed or was refused is recorded as [`FAILED`] (+∞): it misses every
//! latency limit, so it sorts above every answered request and a tail
//! percentile that lands on it reads as a failure, not as a fast reply.

/// The latency recorded for a failed or refused request.
pub const FAILED: f64 = f64::INFINITY;

/// How many samples must lie beyond a percentile for it to be reported.
pub const TAIL_SAMPLES: usize = 10;

/// The 1-based nearest-rank position of percentile `p` (in `(0, 1]`) in
/// `n` sorted samples.
#[must_use]
pub fn rank(n: usize, p: f64) -> usize {
    // The epsilon keeps exact products (0.99 × 1000) from rounding up.
    ((p * n as f64) - 1e-9).ceil().max(1.0) as usize
}

/// Whether `n` samples put at least [`TAIL_SAMPLES`] beyond percentile `p`.
#[must_use]
pub fn supports(n: usize, p: f64) -> bool {
    n > 0 && n - rank(n, p).min(n) >= TAIL_SAMPLES
}

/// The nearest-rank percentile `p` of `samples`, if the sample is
/// non-empty.  Failed requests ([`FAILED`]) sort last.
#[must_use]
pub fn percentile(samples: &[f64], p: f64) -> Option<f64> {
    if samples.is_empty() {
        return None;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    Some(sorted[rank(sorted.len(), p).min(sorted.len()) - 1])
}

/// The tail percentile `p` of `samples`, refused unless at least
/// [`TAIL_SAMPLES`] samples lie beyond it.
///
/// # Errors
///
/// Names the percentile and the sample count when the sample is too small.
pub fn tail_percentile(samples: &[f64], p: f64) -> Result<f64, String> {
    if !supports(samples.len(), p) {
        return Err(format!(
            "p{} needs at least {TAIL_SAMPLES} samples beyond it; {} samples give {}",
            p * 100.0,
            samples.len(),
            samples.len() - rank(samples.len(), p).min(samples.len())
        ));
    }
    Ok(percentile(samples, p).unwrap_or(FAILED))
}

/// The median of a non-empty sample (the mean of the middle pair for an
/// even count); 0 for an empty one.
#[must_use]
pub fn median(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let mid = sorted.len() / 2;
    if sorted.len() % 2 == 1 {
        sorted[mid]
    } else {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    }
}

/// Nanoseconds of a duration as `f64`.
#[must_use]
pub fn ns(d: std::time::Duration) -> f64 {
    d.as_nanos() as f64
}

/// Milliseconds of a duration as `f64`.
#[must_use]
pub fn ms(d: std::time::Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// The median over windows of each window's percentile `p`: a tail that
/// one stalled window cannot move on its own.  Every window must support
/// `p` by itself (see [`tail_percentile`]).
///
/// # Errors
///
/// The first window too small for `p`.
pub fn windowed(windows: &[Vec<f64>], p: f64) -> Result<f64, String> {
    let per_window = windows
        .iter()
        .map(|w| {
            if p == 0.5 {
                percentile(w, p).ok_or_else(|| "empty window".to_string())
            } else {
                tail_percentile(w, p)
            }
        })
        .collect::<Result<Vec<f64>, String>>()?;
    Ok(median(&per_window))
}
