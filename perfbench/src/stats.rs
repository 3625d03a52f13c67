//! Robust aggregation: medians over fixed-work chunks and tail
//! percentiles that refuse to speak from too few samples.

/// Fewest samples a p99 may be computed from: at least ten samples lie
/// beyond it.
pub const MIN_P99_SAMPLES: usize = 1000;

/// Median of `xs` (mean of the two middle values for an even count).
///
/// # Panics
/// Panics on an empty slice: every caller measures at least one sample.
pub fn median(xs: &[f64]) -> f64 {
    assert!(!xs.is_empty(), "median of no samples");
    let mut s = xs.to_vec();
    s.sort_by(f64::total_cmp);
    let n = s.len();
    if n % 2 == 1 {
        s[n / 2]
    } else {
        (s[n / 2 - 1] + s[n / 2]) / 2.0
    }
}

/// Nearest-rank percentile `p` (0–100) of `xs`. Refuses (returns `Err`)
/// when there are too few samples for `p` to have ten beyond it, so a
/// tail is never read off a handful of points.
pub fn percentile(xs: &[f64], p: f64) -> Result<f64, String> {
    let beyond = (xs.len() as f64 * (100.0 - p) / 100.0).floor() as usize;
    if xs.is_empty() || beyond < 10 {
        return Err(format!(
            "p{p} needs at least ten samples beyond it; have {} samples",
            xs.len()
        ));
    }
    let mut s = xs.to_vec();
    s.sort_by(f64::total_cmp);
    let rank = ((p / 100.0) * s.len() as f64).ceil() as usize;
    Ok(s[rank.clamp(1, s.len()) - 1])
}

/// p99 of `xs`, refused below [`MIN_P99_SAMPLES`].
pub fn p99(xs: &[f64]) -> Result<f64, String> {
    if xs.len() < MIN_P99_SAMPLES {
        return Err(format!(
            "p99 refused: {} samples < {MIN_P99_SAMPLES}",
            xs.len()
        ));
    }
    percentile(xs, 99.0)
}

/// p99 as the median over the run's equal consecutive segments of at
/// least [`MIN_P99_SAMPLES`] samples each (a remainder of fewer samples
/// than segments is dropped).
///
/// The segments are cut by position, never by how fast the program ran in
/// them. A burst of host stalls inside one segment moves that segment's
/// p99 only; a tail the program causes across the run moves every one.
pub fn segmented_p99(xs: &[f64]) -> Result<f64, String> {
    let segments = xs.len() / MIN_P99_SAMPLES;
    if segments == 0 {
        return p99(xs);
    }
    let tails = xs
        .chunks_exact(xs.len() / segments)
        .map(p99)
        .collect::<Result<Vec<f64>, String>>()?;
    Ok(median(&tails))
}

/// Throughput as the median over equal fixed-work chunks.
///
/// `work[i]` and `secs[i]` are the work done and busy time of step `i`;
/// consecutive steps are grouped `chunk` at a time (a trailing partial
/// chunk is dropped so every chunk does the same amount of steps) and the
/// median of `work / secs` over chunks is returned. A preempted slice of
/// a shared host slows one chunk, which the median ignores.
pub fn chunked_rate(work: &[f64], secs: &[f64], chunk: usize) -> Result<f64, String> {
    assert_eq!(work.len(), secs.len(), "one busy time per step");
    let chunk = chunk.max(1);
    let rates: Vec<f64> = work
        .chunks_exact(chunk)
        .zip(secs.chunks_exact(chunk))
        .map(|(w, s)| w.iter().sum::<f64>() / s.iter().sum::<f64>().max(1e-12))
        .collect();
    if rates.len() < 3 {
        return Err(format!(
            "{} chunks of {chunk} steps are too few for a median rate",
            rates.len()
        ));
    }
    Ok(median(&rates))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_odd_even() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[7.0]), 7.0);
    }

    #[test]
    fn p99_refuses_below_one_thousand_samples() {
        let xs: Vec<f64> = (1..=999).map(f64::from).collect();
        assert!(p99(&xs).is_err());
        let xs: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(p99(&xs), Ok(990.0));
    }

    #[test]
    fn percentile_needs_ten_samples_beyond() {
        let xs: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&xs, 50.0), Ok(50.0));
        assert_eq!(percentile(&xs, 90.0), Ok(90.0));
        assert!(percentile(&xs, 95.0).is_err());
        assert!(percentile(&[], 50.0).is_err());
    }

    #[test]
    fn segmented_p99_ignores_a_burst_in_one_segment() {
        // Three segments of 1,000; a burst of 50 stalls lands in the second.
        let mut xs: Vec<f64> = (0..3000).map(|i| f64::from(i % 1000)).collect();
        for x in &mut xs[1000..1050] {
            *x = 1e6;
        }
        assert_eq!(segmented_p99(&xs), Ok(989.0));
        // Pooled, the burst is 1.7% of the run and owns the p99.
        assert_eq!(p99(&xs), Ok(1e6));
        // A tail in every segment is seen.
        for seg in xs.chunks_mut(1000) {
            for x in &mut seg[..20] {
                *x = 5e3;
            }
        }
        assert_eq!(segmented_p99(&xs), Ok(5e3));
    }

    #[test]
    fn segmented_p99_refuses_below_one_thousand_and_keeps_every_segment_full() {
        assert!(segmented_p99(&[1.0; 999]).is_err());
        // 2,999 samples make two segments of 1,499, each with a p99.
        let xs: Vec<f64> = (0..2999).map(f64::from).collect();
        assert_eq!(segmented_p99(&xs), Ok((1484.0 + 2983.0) / 2.0));
    }

    #[test]
    fn chunked_rate_ignores_one_preempted_chunk() {
        // 10 units per step, 1 s per step, except one step stalled 50×.
        let work = vec![10.0; 40];
        let mut secs = vec![1.0; 40];
        secs[17] = 50.0;
        assert_eq!(chunked_rate(&work, &secs, 4), Ok(10.0));
        // A plain total would have moved by more than half.
        let total = work.iter().sum::<f64>() / secs.iter().sum::<f64>();
        assert!(total < 5.0);
    }

    #[test]
    fn chunked_rate_drops_partial_chunk_and_needs_three_chunks() {
        let work = vec![1.0; 7];
        let mut secs = vec![1.0; 7];
        secs[6] = 100.0; // in the dropped partial chunk
        assert_eq!(chunked_rate(&work, &secs, 2), Ok(1.0));
        assert!(chunked_rate(&work[..5], &secs[..5], 2).is_err());
    }
}
