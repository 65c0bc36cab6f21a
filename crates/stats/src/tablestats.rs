//! Exact correlation statistics over full tables.
//!
//! Tables 1–2 of the paper define the statistics its cost model consumes:
//! `u_tups` (tuples per unclustered value), `c_tups` (tuples per clustered
//! value), and the correlation strength `c_per_u` — the average number of
//! distinct clustered values co-occurring with each unclustered value,
//! computable as `D(Au, Ac) / D(Au)`. These exact versions are used to
//! validate the sample-based estimators and to drive experiments where the
//! paper also computed them exactly.

use cm_storage::Value;
use std::collections::HashSet;

/// Correlation statistics between an unclustered attribute `Au` and a
/// clustered attribute `Ac` (paper, Tables 1–2).
#[derive(Debug, Clone, PartialEq)]
pub struct CorrelationStats {
    /// Total tuples examined.
    pub total_tups: u64,
    /// `D(Au)` — distinct unclustered values.
    pub distinct_u: u64,
    /// `D(Ac)` — distinct clustered values.
    pub distinct_c: u64,
    /// `D(Au, Ac)` — distinct co-occurring pairs.
    pub distinct_uc: u64,
    /// Average distinct `Ac` values per `Au` value: `D(Au,Ac) / D(Au)`.
    pub c_per_u: f64,
    /// Average tuples per `Au` value: `total / D(Au)`.
    pub u_tups: f64,
    /// Average tuples per `Ac` value: `total / D(Ac)`.
    pub c_tups: f64,
}

/// Compute exact correlation statistics from `(Au, Ac)` value pairs.
pub fn correlation_stats<'a>(
    pairs: impl Iterator<Item = (&'a Value, &'a Value)>,
) -> CorrelationStats {
    let mut us: HashSet<&Value> = HashSet::new();
    let mut cs: HashSet<&Value> = HashSet::new();
    let mut ucs: HashSet<(&Value, &Value)> = HashSet::new();
    let mut total = 0u64;
    for (u, c) in pairs {
        total += 1;
        us.insert(u);
        cs.insert(c);
        ucs.insert((u, c));
    }
    CorrelationStats::from_counts(total, us.len() as u64, cs.len() as u64, ucs.len() as u64)
}

/// Compute exact correlation statistics where the "unclustered key" is a
/// derived composite (e.g. a bucketed multi-attribute CM key). The caller
/// supplies pre-projected `(key, Ac)` pairs with any hashable key type.
pub fn composite_correlation_stats<K: std::hash::Hash + Eq>(
    pairs: impl Iterator<Item = (K, Value)>,
) -> CorrelationStats {
    let mut us: HashSet<u64> = HashSet::new();
    let mut cs: HashSet<Value> = HashSet::new();
    let mut ucs: HashSet<(u64, Value)> = HashSet::new();
    let mut total = 0u64;
    use std::collections::hash_map::DefaultHasher;
    use std::hash::Hasher;
    for (k, c) in pairs {
        total += 1;
        let mut h = DefaultHasher::new();
        k.hash(&mut h);
        let kh = h.finish();
        us.insert(kh);
        ucs.insert((kh, c.clone()));
        cs.insert(c);
    }
    CorrelationStats::from_counts(total, us.len() as u64, cs.len() as u64, ucs.len() as u64)
}

impl CorrelationStats {
    /// The statistics of `total` tuples with `du` distinct `Au` values,
    /// `dc` distinct `Ac` values and `duc` distinct `(Au, Ac)` pairs,
    /// however they were counted.
    pub fn from_counts(total: u64, du: u64, dc: u64, duc: u64) -> Self {
        CorrelationStats {
            total_tups: total,
            distinct_u: du,
            distinct_c: dc,
            distinct_uc: duc,
            c_per_u: if du == 0 { 0.0 } else { duc as f64 / du as f64 },
            u_tups: if du == 0 { 0.0 } else { total as f64 / du as f64 },
            c_tups: if dc == 0 { 0.0 } else { total as f64 / dc as f64 },
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pairs(data: &[(&'static str, &'static str)]) -> Vec<(Value, Value)> {
        data.iter().map(|(u, c)| (Value::str(*u), Value::str(*c))).collect()
    }

    #[test]
    fn perfect_functional_dependency_has_c_per_u_one() {
        // city -> state is exact here.
        let data = pairs(&[
            ("boston", "MA"),
            ("boston", "MA"),
            ("cambridge", "MA"),
            ("toledo", "OH"),
            ("toledo", "OH"),
        ]);
        let s = correlation_stats(data.iter().map(|(u, c)| (u, c)));
        assert_eq!(s.total_tups, 5);
        assert_eq!(s.distinct_u, 3);
        assert_eq!(s.distinct_uc, 3);
        assert!((s.c_per_u - 1.0).abs() < 1e-12);
    }

    #[test]
    fn soft_fd_from_the_paper() {
        // Boston appears in MA and NH: c_per_u > 1.
        let data = pairs(&[
            ("boston", "MA"),
            ("boston", "NH"),
            ("springfield", "MA"),
            ("springfield", "OH"),
            ("toledo", "OH"),
        ]);
        let s = correlation_stats(data.iter().map(|(u, c)| (u, c)));
        assert_eq!(s.distinct_u, 3);
        assert_eq!(s.distinct_uc, 5);
        assert!((s.c_per_u - 5.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn uncorrelated_attributes_have_high_c_per_u() {
        // Every u co-occurs with every c.
        let mut data = Vec::new();
        for u in 0..10i64 {
            for c in 0..20i64 {
                data.push((Value::Int(u), Value::Int(c)));
            }
        }
        let s = correlation_stats(data.iter().map(|(u, c)| (u, c)));
        assert!((s.c_per_u - 20.0).abs() < 1e-12);
        assert!((s.u_tups - 20.0).abs() < 1e-12);
        assert!((s.c_tups - 10.0).abs() < 1e-12);
    }

    #[test]
    fn empty_input() {
        let s = correlation_stats(std::iter::empty());
        assert_eq!(s.total_tups, 0);
        assert_eq!(s.c_per_u, 0.0);
    }

    #[test]
    fn composite_keys_tighten_correlation() {
        // (lon, lat) -> zip is exact; lon alone is not (the paper's §6
        // motivating example).
        let rows: Vec<((i64, i64), Value)> = vec![
            ((1, 1), Value::Int(11)),
            ((1, 2), Value::Int(12)),
            ((2, 1), Value::Int(21)),
            ((2, 2), Value::Int(22)),
            ((1, 1), Value::Int(11)),
        ];
        let comp = composite_correlation_stats(rows.iter().map(|(k, c)| (*k, c.clone())));
        assert!((comp.c_per_u - 1.0).abs() < 1e-12);

        let lon_only =
            composite_correlation_stats(rows.iter().map(|((lon, _), c)| (*lon, c.clone())));
        assert!(lon_only.c_per_u > 1.5, "lon alone is a weaker determinant");
    }
}
