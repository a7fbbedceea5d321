//! Order statistics and digests shared by every workload.

use t2opt_sim::SimStats;

/// Samples a tail percentile must have strictly beyond it before it is
/// reported: fewer would make p90/p99 a reading of one or two outliers.
pub const MIN_TAIL: usize = 10;

/// Median of `values` (mean of the middle pair for even counts).
///
/// # Panics
/// Panics on an empty slice.
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of no values");
    let s = sorted(values);
    let n = s.len();
    if n % 2 == 1 {
        s[n / 2]
    } else {
        0.5 * (s[n / 2 - 1] + s[n / 2])
    }
}

/// Nearest-rank percentile `q` in `(0, 1)` of `samples`. Refuses (with a
/// message) when fewer than [`MIN_TAIL`] samples lie beyond the picked
/// rank, so a reported tail always rests on at least that many samples.
pub fn percentile(samples: &[f64], q: f64) -> Result<f64, String> {
    assert!(q > 0.0 && q < 1.0, "percentile rank {q} outside (0, 1)");
    let n = samples.len();
    if n == 0 {
        return Err(format!("p{} of no samples", q * 100.0));
    }
    let idx = rank_index(n, q);
    let beyond = n - 1 - idx;
    if beyond < MIN_TAIL {
        return Err(format!(
            "p{} of {n} samples has {beyond} beyond it (need {MIN_TAIL}; use at least {})",
            q * 100.0,
            min_samples(q)
        ));
    }
    Ok(sorted(samples)[idx])
}

/// Fewest samples for which [`percentile`] accepts rank `q`.
pub fn min_samples(q: f64) -> usize {
    (1..)
        .find(|&n| n - 1 - rank_index(n, q) >= MIN_TAIL)
        .expect("some sample count always suffices")
}

/// Zero-based nearest-rank index: `ceil(q·n) - 1`, clamped to the sample.
fn rank_index(n: usize, q: f64) -> usize {
    ((q * n as f64).ceil() as usize).clamp(1, n) - 1
}

fn sorted(values: &[f64]) -> Vec<f64> {
    let mut s = values.to_vec();
    s.sort_by(f64::total_cmp);
    s
}

/// FNV-1a 64 digest (hex) of a simulation's canonical `SimStats` JSON: two
/// runs with equal digests produced bitwise-identical statistics.
pub fn stats_digest(stats: &SimStats) -> String {
    t2opt_store::fnv1a64_hex(t2opt_core::json::to_json_string(stats).as_bytes())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }

    #[test]
    fn percentile_picks_the_nearest_rank() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 0.5), Ok(50.0));
        assert_eq!(percentile(&v, 0.9), Ok(90.0));
    }

    #[test]
    fn percentile_needs_ten_samples_beyond_the_rank() {
        assert_eq!(min_samples(0.5), 20);
        assert_eq!(min_samples(0.9), 100);
        assert_eq!(min_samples(0.99), 1000);
        let v: Vec<f64> = (0..1000).map(f64::from).collect();
        assert!(percentile(&v, 0.99).is_ok());
        assert!(percentile(&v[..999], 0.99).is_err());
        assert!(percentile(&v[..99], 0.9).is_err());
        assert!(percentile(&[], 0.5).is_err());
    }

    #[test]
    fn min_samples_is_exactly_the_threshold() {
        for q in [0.5, 0.75, 0.9, 0.95, 0.99] {
            let n = min_samples(q);
            let v: Vec<f64> = (0..n).map(|i| i as f64).collect();
            assert!(percentile(&v, q).is_ok(), "q={q} n={n}");
            assert!(percentile(&v[..n - 1], q).is_err(), "q={q} n={}", n - 1);
        }
    }

    #[test]
    fn digest_is_stable_and_content_sensitive() {
        let mut stats = SimStats::new(4, 8);
        stats.end_cycle = 1234;
        stats.mem_ops = 99;
        stats.mc_read_bytes[2] = 640;
        let d = stats_digest(&stats);
        assert_eq!(d, stats_digest(&stats.clone()));
        assert_eq!(d.len(), 16);
        // Pinned: a change here means the SimStats JSON encoding changed,
        // which would silently break digest comparisons across revisions.
        assert_eq!(d, "d7f1a71ad5633df6");
        stats.nacks = 1;
        assert_ne!(stats_digest(&stats), d);
    }
}
