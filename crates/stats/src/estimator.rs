//! Sample-based distinct-value estimation.
//!
//! The CM Advisor cannot afford a Distinct Sampling scan for every one of
//! the hundreds of candidate composite designs (§6.1.3 counts 767 designs
//! for four attributes), so the paper estimates composite `c_per_u` with
//! the **Adaptive Estimator** (AE) of Charikar et al. over a ~30,000-row
//! random sample.
//!
//! **Substitution note (documented in DESIGN.md):** AE's published
//! derivation fits a two-parameter frequency model; here we implement the
//! two classical estimators it is built from and blend them by measured
//! sample skew: **GEE** (`sqrt(n/r)·f1 + Σ_{j≥2} f_j`, the
//! error-guaranteed baseline from the same paper) and **Shlosser**'s
//! skew-adaptive estimator. [`estimate_distinct`] — the stand-in for
//! AE — takes the conservative minimum of the two (each overestimates in
//! the regime where the other is reliable). The advisor only needs
//! composite cardinalities accurate to within tens of percent to rank
//! bucketings; the blend comfortably achieves that (see tests).

/// GEE estimator of the number of distinct values in a population of `n`
/// rows, from a uniform random sample of `r` rows whose frequency-of-
/// frequency profile is `f` (`f[j]` = keys seen exactly `j + 1` times).
pub fn gee(n: u64, r: u64, f: &[u64]) -> f64 {
    if r == 0 || f.is_empty() {
        return 0.0;
    }
    let f1 = f[0] as f64;
    let rest: u64 = f.iter().skip(1).sum();
    let scale = ((n as f64) / (r as f64)).sqrt().max(1.0);
    scale * f1 + rest as f64
}

/// Shlosser's estimator: `d + f1 * A / B` where
/// `A = Σ_i (1-q)^i f_i`, `B = Σ_i i q (1-q)^(i-1) f_i`, `q = r / n`.
///
/// Accurate when high-frequency values are likely to appear in the sample
/// (skewed data), which is exactly the regime correlated attributes
/// produce.
pub fn shlosser(n: u64, r: u64, f: &[u64]) -> f64 {
    if r == 0 || f.is_empty() {
        return 0.0;
    }
    let d: u64 = f.iter().sum();
    if n <= r {
        return d as f64;
    }
    let q = r as f64 / n as f64;
    let f1 = f[0] as f64;
    let mut num = 0.0;
    let mut den = 0.0;
    let mut pow = 1.0 - q; // (1-q)^i starting at i = 1
    for (idx, &fi) in f.iter().enumerate() {
        let i = (idx + 1) as f64;
        num += pow * fi as f64;
        den += i * q * (pow / (1.0 - q)) * fi as f64; // i·q·(1-q)^(i-1)
        pow *= 1.0 - q;
    }
    if den <= 0.0 {
        return d as f64;
    }
    d as f64 + f1 * num / den
}

/// Estimate the population distinct count from a sample profile — the
/// smaller of [`gee`] and [`shlosser`] — clamped to the feasible
/// interval `[d, n]`.
///
/// GEE overestimates under high skew with many rare values; Shlosser
/// overestimates under low skew. Each is reliable in the other's weak
/// regime, so the conservative combination takes the smaller of the two
/// (the clamp below by the observed sample distinct count keeps
/// "smaller" from collapsing to nonsense).
pub fn estimate_distinct(n: u64, r: u64, f: &[u64]) -> f64 {
    let d: u64 = f.iter().sum();
    gee(n, r, f).min(shlosser(n, r, f)).clamp(d as f64, n as f64)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::freq::FreqTable;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    /// Draw a uniform sample of `r` rows from `pop` and return the
    /// frequency profile.
    fn sample_profile(pop: &[u64], r: usize, seed: u64) -> Vec<u64> {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut t = FreqTable::new();
        for _ in 0..r {
            t.observe(pop[rng.gen_range(0..pop.len())]);
        }
        t.freq_of_freq()
    }

    fn rel_err(est: f64, truth: f64) -> f64 {
        (est - truth).abs() / truth
    }

    #[test]
    fn exhaustive_sample_is_exact() {
        // Sample = population: every estimator must return d.
        let f = vec![0, 0, 100]; // 100 keys seen 3 times, r = 300, n = 300
        assert_eq!(gee(300, 300, &f), 100.0);
        assert_eq!(shlosser(300, 300, &f), 100.0);
        assert_eq!(estimate_distinct(300, 300, &f), 100.0);
    }

    #[test]
    fn gee_and_shlosser_collapse_to_the_observed_count_on_a_full_sample() {
        // r = n: every key's whole population is in the sample, so both
        // estimators must report the sample distinct count, skewed or not.
        let f = vec![7, 3, 0, 2, 0, 0, 0, 0, 0, 1]; // 13 keys, 7 + 6 + 8 + 10 = 31 rows
        let (n, d) = (31, 13.0);
        assert_eq!(gee(n, n, &f), d);
        assert_eq!(shlosser(n, n, &f), d);
        assert_eq!(estimate_distinct(n, n, &f), d);
    }

    #[test]
    fn empty_sample_returns_zero() {
        assert_eq!(gee(1000, 0, &[]), 0.0);
        assert_eq!(shlosser(1000, 0, &[]), 0.0);
        assert_eq!(estimate_distinct(1000, 0, &[]), 0.0);
    }

    #[test]
    fn uniform_low_cardinality_population() {
        // 1M rows over 1000 distinct values, uniform.
        let n = 1_000_000u64;
        let pop: Vec<u64> = (0..n).map(|i| i % 1000).collect();
        let f = sample_profile(&pop, 30_000, 42);
        let est = estimate_distinct(n, 30_000, &f);
        assert!(rel_err(est, 1000.0) < 0.05, "est {est}");
    }

    #[test]
    fn skewed_population() {
        // Zipf-ish: 100 hot keys cover 90% of rows, 10_000 rare the rest.
        let mut pop = Vec::new();
        for i in 0..900_000u64 {
            pop.push(i % 100);
        }
        for i in 0..100_000u64 {
            pop.push(1000 + i % 10_000);
        }
        let truth = 10_100.0;
        let f = sample_profile(&pop, 30_000, 7);
        let est = estimate_distinct(pop.len() as u64, 30_000, &f);
        assert!(rel_err(est, truth) < 0.6, "est {est} vs {truth}");
        // The adaptive estimate must beat raw sample distinct count.
        let d: u64 = f.iter().sum();
        assert!((est - truth).abs() < (d as f64 - truth).abs());
    }

    #[test]
    fn high_cardinality_population() {
        // Nearly unique column: 200k rows, 100k distinct.
        let pop: Vec<u64> = (0..200_000u64).map(|i| i / 2).collect();
        let f = sample_profile(&pop, 30_000, 11);
        let est = estimate_distinct(200_000, 30_000, &f);
        assert!(rel_err(est, 100_000.0) < 0.5, "est {est}");
    }

    #[test]
    fn estimates_are_clamped_to_feasible_interval() {
        // Pathological profile: force GEE above n.
        let f = vec![100]; // all singletons
        assert!(gee(120, 1, &f) > 120.0);
        let est = estimate_distinct(120, 1, &f);
        assert!(est <= 120.0);
        assert!(est >= 100.0);
    }

    #[test]
    fn ranking_property_for_bucketings() {
        // What the advisor actually needs: coarser bucketings (fewer
        // distinct composites) must estimate below finer ones.
        let n = 500_000u64;
        let fine: Vec<u64> = (0..n).map(|i| i % 50_000).collect();
        let coarse: Vec<u64> = (0..n).map(|i| (i % 50_000) / 64).collect();
        let ef = estimate_distinct(n, 30_000, &sample_profile(&fine, 30_000, 3));
        let ec = estimate_distinct(n, 30_000, &sample_profile(&coarse, 30_000, 3));
        assert!(ec < ef, "coarse {ec} must rank below fine {ef}");
    }

    #[test]
    fn gee_formula_spot_check() {
        // n=10000, r=100, f1=50, f2=25: sqrt(100)*50 + 25 = 525.
        assert!((gee(10_000, 100, &[50, 25]) - 525.0).abs() < 1e-9);
    }
}
