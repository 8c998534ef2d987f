//! Order statistics for latency samples.
//!
//! Quantiles use the nearest-rank rule: the `q`-quantile of `n` samples
//! is the `ceil(q * n)`-th smallest. A tail is only reported where at
//! least [`TAIL_MIN_BEYOND`] samples lie beyond it, so a "p99" of 200
//! samples (two beyond) is never printed as if it meant something.

/// Samples that must lie strictly beyond a reported tail quantile.
pub const TAIL_MIN_BEYOND: usize = 10;

/// The tail every workload reports as `tail_ms`. A run holds a few
/// hundred builds or requests: enough for ten samples beyond a p90, not
/// beyond a p99; and on a shared two-vCPU VM a p95 or p99 of the serve
/// latency moved by 20–45 % between repeated runs.
pub const TAIL_Q: f64 = 0.90;

/// 1-based nearest rank of quantile `q` among `n` samples.
fn rank(q: f64, n: usize) -> usize {
    ((q * n as f64).ceil() as usize).clamp(1, n)
}

/// The nearest-rank `q`-quantile of `values` (reordered in place by a
/// linear-time selection, not a sort). `None` when `values` is empty.
pub fn quantile(values: &mut [f64], q: f64) -> Option<f64> {
    if values.is_empty() {
        return None;
    }
    let index = rank(q, values.len()) - 1;
    let (_, value, _) = values.select_nth_unstable_by(index, f64::total_cmp);
    Some(*value)
}

/// The median of `values` (nearest rank), or 0 when empty.
pub fn median(values: &[f64]) -> f64 {
    quantile(&mut values.to_vec(), 0.5).unwrap_or(0.0)
}

/// The arithmetic mean, or 0 when empty.
pub fn mean(values: impl IntoIterator<Item = f64>) -> f64 {
    let (sum, n) = values
        .into_iter()
        .fold((0.0, 0usize), |(sum, n), v| (sum + v, n + 1));
    if n == 0 {
        0.0
    } else {
        sum / n as f64
    }
}

/// The tail at a fixed quantile `q`, or `None` when fewer than
/// [`TAIL_MIN_BEYOND`] samples lie beyond it.
pub fn tail_at(values: &[f64], q: f64) -> Option<f64> {
    let n = values.len();
    if n == 0 || n - rank(q, n) < TAIL_MIN_BEYOND {
        return None;
    }
    quantile(&mut values.to_vec(), q)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen::Rng;

    /// The oracle: sort, then index the nearest rank.
    fn sorted_quantile(values: &[f64], q: f64) -> f64 {
        let mut sorted = values.to_vec();
        sorted.sort_by(f64::total_cmp);
        let k = ((q * sorted.len() as f64).ceil() as usize).max(1);
        sorted[k - 1]
    }

    #[test]
    fn quantiles_agree_with_a_sort_based_oracle() {
        let mut rng = Rng::new(7);
        for n in [1usize, 2, 3, 10, 11, 99, 100, 101, 1000, 1234] {
            let values: Vec<f64> = (0..n).map(|_| (rng.range(0, 500) as f64) / 7.0).collect();
            for q in [0.0, 0.01, 0.25, 0.5, 0.75, 0.9, 0.95, 0.99, 1.0] {
                let got = quantile(&mut values.clone(), q).unwrap();
                assert_eq!(got, sorted_quantile(&values, q), "n={n} q={q}");
            }
        }
        assert_eq!(quantile(&mut [], 0.5), None);
    }

    #[test]
    fn a_tail_is_reported_only_with_ten_samples_beyond_it() {
        let mut rng = Rng::new(11);
        for n in [
            1usize, 10, 20, 99, 100, 101, 199, 200, 999, 1000, 1009, 1010, 5000,
        ] {
            // Distinct values, so "beyond" is unambiguous.
            let mut values: Vec<f64> = (0..n).map(|i| i as f64).collect();
            rng.shuffle(&mut values);
            for q in [0.5, 0.9, 0.95, 0.99] {
                let oracle = sorted_quantile(&values, q);
                let beyond = values.iter().filter(|&&v| v > oracle).count();
                match tail_at(&values, q) {
                    Some(value) => {
                        assert_eq!(value, oracle, "n={n} q={q}");
                        assert!(beyond >= TAIL_MIN_BEYOND, "n={n} q={q} beyond={beyond}");
                    }
                    None => assert!(beyond < TAIL_MIN_BEYOND, "n={n} q={q} beyond={beyond}"),
                }
            }
        }
        let thousand: Vec<f64> = (0..1000).map(f64::from).collect();
        assert_eq!(tail_at(&thousand, 0.99), Some(989.0));
        assert_eq!(tail_at(&thousand[..999], 0.99), None);
    }
}
