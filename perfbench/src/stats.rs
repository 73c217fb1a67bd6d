//! Order statistics for reported timings.

/// The `q`-quantile (`0 ≤ q ≤ 1`) of `samples` by the nearest-rank rule:
/// the smallest sample with at least `q · n` samples at or below it. The
/// result is always one of the samples, never an interpolation. `None`
/// for an empty set.
pub fn percentile(samples: &[f64], q: f64) -> Option<f64> {
    if samples.is_empty() {
        return None;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    let rank = (q.clamp(0.0, 1.0) * n as f64).ceil() as usize;
    Some(sorted[rank.clamp(1, n) - 1])
}

/// The median by the same nearest-rank rule (the lower middle sample for
/// an even count).
pub fn median(samples: &[f64]) -> Option<f64> {
    percentile(samples, 0.5)
}

/// The highest of the given quantiles that still has at least `beyond`
/// samples above it, so a reported tail is backed by real observations:
/// with `n` samples, quantile `q` qualifies when `n − ⌈q·n⌉ ≥ beyond`.
pub fn supported_quantile(n: usize, candidates: &[f64], beyond: usize) -> Option<f64> {
    candidates
        .iter()
        .copied()
        .filter(|&q| n.saturating_sub((q * n as f64).ceil() as usize) >= beyond)
        .reduce(f64::max)
}

/// Host-speed factors of passes that did the same work. `parts[p]` holds
/// the seconds pass `p` took for each of a fixed list of pieces (the same
/// pieces in the same order on every pass). A piece's reference time is
/// its `q`-quantile over the passes, its time when the host ran it at
/// full speed; a pass's factor is the sum of the reference times over the
/// sum of its own. A pass that ran every piece at its reference speed
/// gets 1; one that a busy host slowed by a third gets 0.75. Scaling a
/// pass's times by its factor removes the host's slow-downs, not the
/// program's: a slower program is slower in every pass, reference times
/// included. Every factor is 1 when the passes do not share one list of
/// pieces or took no measurable time.
pub fn speed_factors(parts: &[Vec<f64>], q: f64) -> Vec<f64> {
    let pieces = parts.first().map_or(0, Vec::len);
    let shared = pieces > 0 && parts.iter().all(|p| p.len() == pieces);
    let reference: f64 = if shared {
        (0..pieces)
            .filter_map(|i| percentile(&parts.iter().map(|p| p[i]).collect::<Vec<_>>(), q))
            .sum()
    } else {
        0.0
    };
    parts
        .iter()
        .map(|p| {
            let own: f64 = p.iter().sum();
            if reference > 0.0 && own > 0.0 {
                reference / own
            } else {
                1.0
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_picks_an_observed_sample() {
        let xs: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&xs, 0.5), Some(50.0));
        assert_eq!(percentile(&xs, 0.99), Some(99.0));
        assert_eq!(percentile(&xs, 1.0), Some(100.0));
        assert_eq!(percentile(&xs, 0.0), Some(1.0));
        assert_eq!(percentile(&[], 0.5), None);
    }

    #[test]
    fn order_of_input_does_not_matter() {
        let xs = [9.0, 1.0, 5.0, 3.0, 7.0];
        assert_eq!(median(&xs), Some(5.0));
        assert_eq!(percentile(&xs, 0.8), Some(7.0));
    }

    #[test]
    fn p99_has_at_least_ten_samples_beyond_it() {
        // 1,100 samples: p99 sits at rank 1,089, leaving 11 above it.
        let xs: Vec<f64> = (0..1100).map(f64::from).collect();
        let p99 = percentile(&xs, 0.99).unwrap();
        let beyond = xs.iter().filter(|&&x| x > p99).count();
        assert!(beyond >= 10, "only {beyond} samples beyond p99");
        assert_eq!(
            supported_quantile(xs.len(), &[0.5, 0.9, 0.99], 10),
            Some(0.99)
        );
    }

    #[test]
    fn tail_falls_back_when_too_few_samples() {
        // 500 samples: p99 would leave 5 above it, p90 leaves 50.
        assert_eq!(supported_quantile(500, &[0.5, 0.9, 0.99], 10), Some(0.9));
        assert_eq!(supported_quantile(5, &[0.5, 0.9, 0.99], 10), None);
    }

    #[test]
    fn speed_factors_undo_a_uniform_slow_down() {
        let fast = vec![1.0, 2.0, 3.0];
        let slow: Vec<f64> = fast.iter().map(|x| x * 2.0).collect();
        let parts = vec![fast.clone(), slow, fast];
        assert_eq!(speed_factors(&parts, 0.1), vec![1.0, 0.5, 1.0]);
    }

    #[test]
    fn speed_factors_take_each_piece_at_its_fastest() {
        // Each pass was slowed on a different piece; the reference is
        // 1 + 1, and each pass ran 1 + 3.
        let parts = vec![vec![1.0, 3.0], vec![3.0, 1.0]];
        assert_eq!(speed_factors(&parts, 0.1), vec![0.5, 0.5]);
    }

    #[test]
    fn speed_factors_are_one_without_shared_pieces() {
        assert_eq!(
            speed_factors(&[vec![1.0], vec![1.0, 2.0]], 0.1),
            vec![1.0, 1.0]
        );
        assert_eq!(speed_factors(&[vec![], vec![]], 0.1), vec![1.0, 1.0]);
        assert_eq!(speed_factors(&[vec![0.0], vec![0.0]], 0.1), vec![1.0, 1.0]);
        assert!(speed_factors(&[], 0.1).is_empty());
    }
}
