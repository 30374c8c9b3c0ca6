//! The estimators of the benchmark (README "Estimator rules").
//!
//! Everything here takes plain slices and is exercised by `--self-test`
//! on a committed cycle trace, because the estimator — not the code
//! under test — decided whether the two earlier benchmark attempts were
//! accepted.

/// Sorts a copy ascending (total order, so NaN cannot panic).
pub fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// The value at quantile `q` over `k` repeats of one quantity: sorted
/// rank `round(q·(k−1))` (0 if there are none).
pub fn over_repeats(values: &[f64], q: f64) -> f64 {
    let v = sorted(values);
    let last = v.len().saturating_sub(1);
    let rank = ((q * last as f64).round() as usize).min(last);
    v.get(rank).copied().unwrap_or(0.0)
}

/// Rule 2: the *sustained* value of a repeated measurement is its upper
/// quartile over the repeats. The host gives this guest a slow plateau
/// with opportunistic fast episodes of 2–70 s; the upper quartile stays
/// on the plateau until an episode covers three quarters of a run, the
/// median only until it covers half (README "Noise profile", checked by
/// `--self-test` on three committed cycle traces).
pub fn sustained(values: &[f64]) -> f64 {
    over_repeats(values, 0.75)
}

/// The median over repeats: layer numbers (a layer metric is the median
/// time per call) and the centre of [`spread`].
pub fn median(values: &[f64]) -> f64 {
    over_repeats(values, 0.5)
}

/// Rule 3 rank: quantiles over *ops* are rank `q·N` of the `N` sorted
/// op latencies.
pub fn op_rank(n: usize, q: f64) -> usize {
    ((q * n as f64).floor() as usize).min(n.saturating_sub(1))
}

/// `(q75 − q25) / q50` of repeats, as a fraction.
pub fn spread(values: &[f64]) -> f64 {
    let q50 = median(values);
    if q50 == 0.0 {
        return 0.0;
    }
    (over_repeats(values, 0.75) - over_repeats(values, 0.25)) / q50
}

/// Quartile cut points exactly as Python's
/// `statistics.quantiles(values, n=4)` (the exclusive method) gives
/// them — the acceptance check is stated in those terms, so the A/A
/// report must compute the same numbers.
pub fn python_quartiles(values: &[f64]) -> Option<[f64; 3]> {
    let v = sorted(values);
    let n = v.len();
    if n < 2 {
        return None;
    }
    let m = n + 1;
    let mut out = [0.0; 3];
    for (slot, i) in out.iter_mut().zip(1..4usize) {
        let j = (i * m / 4).clamp(1, n - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        *slot = (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0;
    }
    Some(out)
}

/// The acceptance spread: inter-quartile distance over the median, with
/// Python's cut points.
pub fn python_iqr_share(values: &[f64]) -> f64 {
    match python_quartiles(values) {
        Some([q1, q2, q3]) if q2 != 0.0 => (q3 - q1) / q2.abs(),
        _ => 0.0,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ranks_match_the_written_rules() {
        // Rule 2: rank round(0.75·(k−1)).
        let k5 = [5.0, 1.0, 4.0, 2.0, 3.0];
        assert_eq!(sustained(&k5), 4.0); // rule 4: the 4th smallest of 5 set-ups
        assert_eq!(median(&k5), 3.0);
        let k4 = [4.0, 1.0, 3.0, 2.0];
        // round(0.75·3) = 2.
        assert_eq!(sustained(&k4), 3.0);
        // Rule 3: ranks 0.5·N and 0.9·N.
        assert_eq!((op_rank(120, 0.5), op_rank(120, 0.9)), (60, 108));
        assert_eq!((op_rank(100, 0.5), op_rank(100, 0.9)), (50, 90));
        assert_eq!((op_rank(30, 0.5), op_rank(30, 0.9)), (15, 27));
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn python_quartiles_agree_with_cpython() {
        // statistics.quantiles([1,2,3,4,5,6,7,8,9,10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(python_quartiles(&v), Some([2.75, 5.5, 8.25]));
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(python_quartiles(&[3.0, 1.0, 2.0]), Some([1.0, 2.0, 3.0]));
        assert_eq!(python_quartiles(&[1.0]), None);
    }
}
